package main

import (
	"math"
	rtm "runtime/metrics"
	"syscall"
)

// Go runtime metrics read at phase boundaries. The cumulative ones are
// turned into deltas; /gc/heap/live:bytes is a gauge and is only ever
// compared, never subtracted.
const (
	rtAllocObjects = "/gc/heap/allocs:objects"
	rtAllocBytes   = "/gc/heap/allocs:bytes"
	rtLive         = "/gc/heap/live:bytes"
	rtGCCycles     = "/gc/cycles/total:gc-cycles"
	rtGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU     = "/cpu/classes/total:cpu-seconds"
	rtIdleCPU      = "/cpu/classes/idle:cpu-seconds"
	rtMutexWait    = "/sync/mutex/wait/total:seconds"
	rtSchedLat     = "/sched/latencies:seconds"
)

// rtSnap is one reading of the runtime metrics plus process CPU time.
type rtSnap struct {
	allocObjects, allocBytes, live, gcCycles uint64
	gcCPU, totalCPU, idleCPU, mutexWait      float64
	cpuNs                                    int64 // user+sys from getrusage
	schedCounts                              []uint64
	schedBuckets                             []float64
}

// rtReader reuses its sample slices so that per-iteration reads do not
// allocate.
type rtReader struct {
	quick []rtm.Sample // read after every iteration
	full  []rtm.Sample // read at phase boundaries
}

func newRTReader() *rtReader {
	quick := []string{rtAllocObjects, rtAllocBytes, rtLive}
	full := append(quick, rtGCCycles, rtGCCPU, rtTotalCPU, rtIdleCPU, rtMutexWait, rtSchedLat)
	r := &rtReader{}
	for _, n := range quick {
		r.quick = append(r.quick, rtm.Sample{Name: n})
	}
	for _, n := range full {
		r.full = append(r.full, rtm.Sample{Name: n})
	}
	return r
}

// processCPUNs returns the process's user+sys CPU time.
func processCPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// readQuick fills the per-iteration fields of s: allocations, live heap,
// and process CPU time.
func (r *rtReader) readQuick(s *rtSnap) {
	rtm.Read(r.quick)
	s.allocObjects = r.quick[0].Value.Uint64()
	s.allocBytes = r.quick[1].Value.Uint64()
	s.live = r.quick[2].Value.Uint64()
	s.cpuNs = processCPUNs()
}

// readFull returns a snapshot of every tracked metric.
func (r *rtReader) readFull() rtSnap {
	rtm.Read(r.full)
	var s rtSnap
	s.cpuNs = processCPUNs()
	s.allocObjects = r.full[0].Value.Uint64()
	s.allocBytes = r.full[1].Value.Uint64()
	s.live = r.full[2].Value.Uint64()
	s.gcCycles = r.full[3].Value.Uint64()
	s.gcCPU = r.full[4].Value.Float64()
	s.totalCPU = r.full[5].Value.Float64()
	s.idleCPU = r.full[6].Value.Float64()
	s.mutexWait = r.full[7].Value.Float64()
	h := r.full[8].Value.Float64Histogram()
	s.schedCounts = append([]uint64(nil), h.Counts...)
	s.schedBuckets = append([]float64(nil), h.Buckets...)
	return s
}

// rtDelta accumulates the change of the cumulative runtime metrics over
// one or more measured phases.
type rtDelta struct {
	allocObjects, allocBytes, gcCycles  uint64
	gcCPU, totalCPU, idleCPU, mutexWait float64
	cpuNs                               int64
	schedCounts                         []uint64
	schedBuckets                        []float64
}

// add accumulates the change from a to b.
func (d *rtDelta) add(a, b rtSnap) {
	d.allocObjects += b.allocObjects - a.allocObjects
	d.allocBytes += b.allocBytes - a.allocBytes
	d.gcCycles += b.gcCycles - a.gcCycles
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
	d.idleCPU += b.idleCPU - a.idleCPU
	d.mutexWait += b.mutexWait - a.mutexWait
	d.cpuNs += b.cpuNs - a.cpuNs
	if d.schedCounts == nil {
		d.schedCounts = make([]uint64, len(b.schedCounts))
		d.schedBuckets = b.schedBuckets
	}
	for i := range b.schedCounts {
		if i < len(a.schedCounts) && i < len(d.schedCounts) {
			d.schedCounts[i] += b.schedCounts[i] - a.schedCounts[i]
		}
	}
}

// merge folds another delta into d.
func (d *rtDelta) merge(o *rtDelta) {
	d.allocObjects += o.allocObjects
	d.allocBytes += o.allocBytes
	d.gcCycles += o.gcCycles
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
	d.idleCPU += o.idleCPU
	d.mutexWait += o.mutexWait
	d.cpuNs += o.cpuNs
	if d.schedCounts == nil && o.schedCounts != nil {
		d.schedCounts = make([]uint64, len(o.schedCounts))
		d.schedBuckets = o.schedBuckets
	}
	for i := range o.schedCounts {
		if i < len(d.schedCounts) {
			d.schedCounts[i] += o.schedCounts[i]
		}
	}
}

// schedQuantile returns quantile q of the scheduling-latency distribution
// in seconds, as the upper bound of the bucket holding it (the lower bound
// for the open-ended last bucket), or 0 with no samples.
func (d *rtDelta) schedQuantile(q float64) float64 {
	var total uint64
	for _, c := range d.schedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range d.schedCounts {
		cum += c
		if cum >= want {
			hi := d.schedBuckets[i+1]
			if math.IsInf(hi, 1) {
				return d.schedBuckets[i]
			}
			return hi
		}
	}
	return 0
}
