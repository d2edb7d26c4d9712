package main

import (
	"fmt"
	"math/rand"
	"time"
)

// replayer replays a workload's calls into the layers' public functions.
// iterate runs one iteration under root (a no-op span when tracing is off)
// and returns an error when a benchmark output check fails.
type replayer interface {
	iterate(root span) error
	layerMetrics(sum *traceSummary, out map[string]float64)
}

// newRand returns the replay input generator for one stream of a seed.
func newRand(seed int64, stream string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ int64(h>>1)))
}

// scaled returns n scaled by f, at least lo.
func scaled(n int, f float64, lo int) int {
	return max(lo, int(float64(n)*f))
}

// replayRun collects the iterations of a replay.
type replayRun struct {
	durMs     []float64
	attempted int
	failed    int
	errs      []string
}

// iterateSafely runs one replay iteration, turning a panic into an error.
func iterateSafely(rp replayer, root span) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return rp.iterate(root)
}

// run iterates the replay until budget has passed (or the tracer is full)
// and at least minIters iterations ran, stopping at the first failure.
func (rr *replayRun) run(rp replayer, tr *tracer, budget time.Duration, minIters int) {
	deadline := time.Now().Add(budget)
	for i := 0; i < minIters || (time.Now().Before(deadline) && !tr.full()); i++ {
		root := tr.root("iteration")
		t0 := time.Now()
		err := iterateSafely(rp, root)
		d := time.Since(t0)
		root.end()
		rr.attempted++
		if err != nil {
			rr.failed++
			rr.errs = append(rr.errs, err.Error())
			return
		}
		rr.durMs = append(rr.durMs, float64(d)/1e6)
	}
}
