package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"renaissance/internal/core"
	"renaissance/internal/hdr"
	"renaissance/internal/metrics"
)

// Each spec runs as one pilot round followed by mainRounds measured rounds.
// Every round is one core.Runner.Run: Setup, warmup iterations, measured
// iterations, Validate, Close. Several rounds give several set-up samples,
// whose median is the spec's set-up time.
const (
	mainRounds = 3
	// A round's set-up sample is the median of setupParts timed parts, each
	// started right after a forced GC. A part is one Setup call when that
	// takes setupPart or more (and then only minSetupParts parts run);
	// cheaper Setups are repeated to fill setupPart and the mean is taken.
	// A part is short enough that it rarely triggers a GC of its own, so a
	// cheap Setup is timed without the collector's interference.
	setupPart     = time.Millisecond
	setupParts    = 5
	minSetupParts = 2
	// minSamples keeps every spec at the top tail percentile (see
	// tailLadder) however slow it is, so the percentile never changes
	// between runs.
	minSamples = 100
	// warmupShare is the part of a round spent warming up.
	warmupShare  = 0.2
	roundTimeout = 60 * time.Second
	// maxSpecTime caps a spec's measured rounds however slow it gets, so a
	// run stays within its time limit.
	maxSpecTime = 40 * time.Second
)

// specStats collects one spec's measurements over its measured rounds.
type specStats struct {
	name      string
	setupS    []float64 // seconds per Setup call, one sample per round
	durMs     []float64 // measured iteration times
	roundMs   []float64 // median iteration time of each measured round
	warmup    int       // warmup iterations run, pilot included
	measured  int
	rt        rtDelta
	live      []float64 // live heap read after every iteration of the measured rounds
	prim      metrics.Snapshot
	attempted int
	failed    int
	errs      []string
	lat       *hdr.Histogram // merged LatencyHistogram, when the spec has one
}

// wrapped forwards the Runner's calls to the spec's workload, so the
// benchmark can reach the workload after the round (for its latency
// histogram) while the Runner drives it exactly as `renaissance run` does.
type wrapped struct{ inner core.Workload }

func (w *wrapped) RunIteration() error { return w.inner.RunIteration() }

func (w *wrapped) Validate() error {
	if v, ok := w.inner.(core.Validator); ok {
		return v.Validate()
	}
	return nil
}

func (w *wrapped) Close() error {
	if c, ok := w.inner.(core.Closer); ok {
		return c.Close()
	}
	return nil
}

// latencyWrapped is wrapped for workloads that report request latencies.
type latencyWrapped struct {
	wrapped
	lr core.LatencyReporter
}

func (w *latencyWrapped) LatencyHistogram() *hdr.Histogram { return w.lr.LatencyHistogram() }

// roundRecorder is the plugin that samples the runtime after every
// iteration (outside the Runner's timed region) and brackets the measured
// phase.
type roundRecorder struct {
	core.Base
	rd       *rtReader
	warmup   int
	measured int
	events   int
	snap     rtSnap
	start    rtSnap
	end      rtSnap
	done     bool
	live     []float64 // preallocated, so the measured phase does not allocate
}

func (p *roundRecorder) AfterIteration(ev core.IterationEvent) {
	p.events++
	switch {
	case ev.Warmup && ev.Index == p.warmup-1:
		p.start = p.rd.readFull()
		p.live = append(p.live, float64(p.start.live))
	case !ev.Warmup && ev.Index == p.measured-1 && ev.Err == nil:
		p.end = p.rd.readFull()
		p.done = true
		p.live = append(p.live, float64(p.end.live))
	default:
		p.rd.readQuick(&p.snap)
		p.live = append(p.live, float64(p.snap.live))
	}
}

// roundPlan is the shape of one round.
type roundPlan struct {
	setupCalls, setupParts int // Setup calls per timed part, and parts
	warmup, measured       int
}

// roundResult is what one round reports back to the planner.
type roundResult struct {
	setupS  float64
	durMs   []float64
	elapsed time.Duration
	ok      bool
}

// runRound executes one round through core.Runner. Measured rounds (keep)
// add their samples to st; the pilot only counts toward attempts.
func runRound(spec *core.Spec, cfg core.Config, rd *rtReader, plan roundPlan, st *specStats, keep bool) roundResult {
	var inner core.Workload
	var setupS float64
	wspec := *spec
	wspec.Setup = func(cfg core.Config) (core.Workload, error) {
		// Extra instances are dropped as soon as the next one exists, so
		// the batch does not inflate the live heap; ones holding resources
		// are closed after the timed batch.
		var spare []core.Closer
		var partS []float64
		for p := 0; p < plan.setupParts; p++ {
			runtime.GC()
			t0 := time.Now()
			for k := 0; k < plan.setupCalls; k++ {
				if c, ok := inner.(core.Closer); ok {
					spare = append(spare, c)
				}
				w, err := spec.Setup(cfg)
				if err != nil {
					return nil, err
				}
				inner = w
			}
			partS = append(partS, time.Since(t0).Seconds()/float64(plan.setupCalls))
		}
		setupS = median(partS)
		for _, c := range spare {
			_ = c.Close() // a discarded extra instance; its Close result is not part of the measurement
		}
		if lr, ok := inner.(core.LatencyReporter); ok {
			return &latencyWrapped{wrapped{inner}, lr}, nil
		}
		return &wrapped{inner}, nil
	}
	rec := &roundRecorder{rd: rd, warmup: plan.warmup, measured: plan.measured,
		live: make([]float64, 0, plan.warmup+plan.measured)}
	r := &core.Runner{
		Config:           cfg,
		WarmupOverride:   plan.warmup,
		MeasuredOverride: plan.measured,
		TimeoutOverride:  roundTimeout,
		Plugins:          []core.Plugin{rec},
	}
	runtime.GC()
	t0 := time.Now()
	res, _ := r.Run(&wspec)
	elapsed := time.Since(t0)

	out := roundResult{setupS: setupS, durMs: res.Durations, elapsed: elapsed, ok: res.Status == core.StatusOK}
	st.attempted += max(rec.events, 1)
	if !out.ok {
		st.failed++
		st.errs = append(st.errs, fmt.Sprintf("%s: %s: %s", spec.Name, res.Status, firstLine(res.Err)))
		return out
	}
	st.warmup += plan.warmup
	if !keep {
		return out
	}
	st.setupS = append(st.setupS, setupS)
	st.durMs = append(st.durMs, res.Durations...)
	st.roundMs = append(st.roundMs, median(res.Durations))
	st.measured += plan.measured
	st.live = append(st.live, rec.live...)
	if rec.done {
		st.rt.add(rec.start, rec.end)
	}
	if res.Profile != nil {
		for i := range st.prim.Counts {
			st.prim.Counts[i] += res.Profile.Counts.Counts[i]
		}
	}
	if lr, ok := inner.(core.LatencyReporter); ok {
		if h := lr.LatencyHistogram(); h != nil {
			if st.lat == nil {
				st.lat = hdr.New()
			}
			st.lat.Merge(h)
		}
	}
	return out
}

// runSpec measures one spec within budget: a pilot round sizes the set-up
// batch and the iteration counts, then mainRounds rounds split the rest.
func runSpec(spec *core.Spec, cfg core.Config, rd *rtReader, budget time.Duration) *specStats {
	st := &specStats{name: spec.Name}
	pilotWarm := max(spec.Warmup, 1)
	pilot := runRound(spec, cfg, rd, roundPlan{setupCalls: 1, setupParts: 1, warmup: pilotWarm, measured: 3}, st, false)
	if !pilot.ok {
		return st
	}
	iterS := median(pilot.durMs) / 1e3
	if iterS <= 0 {
		iterS = 1e-6
	}
	calls, parts := 1, minSetupParts
	if pilot.setupS < setupPart.Seconds() {
		calls = min(int(math.Ceil(setupPart.Seconds()/max(pilot.setupS, 1e-8))), 1_000_000)
		parts = setupParts
	}
	roundS := (budget - pilot.elapsed).Seconds() / mainRounds
	warm := max(spec.Warmup, int(warmupShare*roundS/iterS))
	meas := max((minSamples+mainRounds-1)/mainRounds, int((1-warmupShare)*roundS/iterS))
	meas = max(1, min(meas, int(maxSpecTime.Seconds()/mainRounds/iterS)))
	warm = max(1, min(warm, meas))
	for i := 0; i < mainRounds; i++ {
		res := runRound(spec, cfg, rd, roundPlan{setupCalls: calls, setupParts: parts, warmup: warm, measured: meas}, st, true)
		if !res.ok {
			break
		}
	}
	return st
}

// heapPeak is the spec's peak live heap in bytes: the 90th percentile of
// the live-heap readings, which damps a single GC that marked at the
// busiest moment of an iteration.
func (st *specStats) heapPeak() float64 { return percentile(st.live, 90) }

// iterMs is the spec's median measured iteration time.
func (st *specStats) iterMs() float64 { return median(st.durMs) }

// tail returns the tail percentile used and its value.
func (st *specStats) tail() (int, float64) {
	p, ok := tailPercentile(len(st.durMs))
	if !ok {
		p = tailLadder[len(tailLadder)-1]
	}
	return p, percentile(st.durMs, p)
}

func (st *specStats) perIter(v float64) float64 {
	if st.measured == 0 {
		return 0
	}
	return v / float64(st.measured)
}

func (st *specStats) cpuMsPerIter() float64  { return st.perIter(float64(st.rt.cpuNs) / 1e6) }
func (st *specStats) allocsPerIter() float64 { return st.perIter(float64(st.rt.allocObjects)) }
func (st *specStats) allocKBPerIter() float64 {
	return st.perIter(float64(st.rt.allocBytes) / 1024)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
