package main

import (
	"math"
	"runtime"
	"testing"
)

var sink [][]byte

// TestRTDeltaAcrossGC checks that cumulative runtime metrics still give
// correct deltas when a GC cycle runs between the two readings, and that
// the live-heap gauge reflects what survived it.
func TestRTDeltaAcrossGC(t *testing.T) {
	rd := newRTReader()
	runtime.GC()
	a := rd.readFull()
	const n, size = 20000, 256
	sink = make([][]byte, n)
	for i := range sink {
		sink[i] = make([]byte, size)
	}
	runtime.GC()
	b := rd.readFull()
	var d rtDelta
	d.add(a, b)
	if d.allocObjects < n {
		t.Errorf("allocs delta %d, want >= %d", d.allocObjects, n)
	}
	if d.allocBytes < n*size {
		t.Errorf("alloc bytes delta %d, want >= %d", d.allocBytes, n*size)
	}
	if d.gcCycles < 1 {
		t.Errorf("gc cycles delta %d, want >= 1", d.gcCycles)
	}
	if d.gcCPU < 0 || d.totalCPU < d.gcCPU || d.idleCPU < 0 {
		t.Errorf("cpu classes gc=%v total=%v idle=%v out of order", d.gcCPU, d.totalCPU, d.idleCPU)
	}
	if d.cpuNs < 0 {
		t.Errorf("process cpu delta %d is negative", d.cpuNs)
	}
	if b.live < n*size {
		t.Errorf("live heap %d after GC, want >= %d kept alive", b.live, n*size)
	}
	var merged rtDelta
	merged.merge(&d)
	merged.merge(&d)
	if merged.allocObjects != 2*d.allocObjects || merged.gcCycles != 2*d.gcCycles {
		t.Errorf("merge of two deltas = %+v", merged)
	}
	sink = nil
}

func TestSchedQuantile(t *testing.T) {
	d := rtDelta{
		schedBuckets: []float64{0, 1e-6, 1e-5, math.Inf(1)},
		schedCounts:  []uint64{10, 89, 1},
	}
	if got := d.schedQuantile(0.99); got != 1e-5 {
		t.Errorf("p99 = %v, want the 1e-5 bucket bound", got)
	}
	if got := d.schedQuantile(1); got != 1e-5 {
		t.Errorf("p100 = %v, want the open bucket's lower bound 1e-5", got)
	}
	if got := (&rtDelta{}).schedQuantile(0.99); got != 0 {
		t.Errorf("empty p99 = %v, want 0", got)
	}
}
