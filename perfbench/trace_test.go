package main

import (
	"sync"
	"testing"
	"time"
)

// TestSelfTimeOverlappingChildren checks that overlapping children (as
// spans opened by concurrent goroutines under one parent produce) are
// subtracted from the parent by their union, not their sum.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []spanRec{
		{parent: -1, layer: layerBench, name: "iteration", start: 0, end: 100},
		{parent: 0, layer: layerNetstack, name: "a", start: 10, end: 60},
		{parent: 0, layer: layerNetstack, name: "b", start: 40, end: 90},
		{parent: 1, layer: layerFutures, name: "c", start: 20, end: 30},
		{parent: 0, layer: layerStm, name: "d", start: 95, end: 120}, // clipped to the parent
	}
	sum := analyze(spans)
	if got := sum.selfNs[layerBench]; got != 100-80-5 {
		t.Errorf("root self = %d, want %d", got, 100-80-5)
	}
	if got := sum.selfNs[layerNetstack]; got != (50-10)+50 {
		t.Errorf("netstack self = %d, want %d", got, 90)
	}
	if got := sum.selfNs[layerFutures]; got != 10 {
		t.Errorf("futures self = %d, want 10", got)
	}
	if sum.roots != 1 || sum.rootNs != 100 {
		t.Errorf("roots = %d, %d ns; want 1, 100", sum.roots, sum.rootNs)
	}
	if got := sum.meanNs(layerNetstack, "a"); got != 50 {
		t.Errorf("mean of netstack.a = %v, want 50", got)
	}
}

// TestSelfTimeConcurrentGoroutines records real spans from two goroutines
// sleeping at the same time under one parent: the parent's self time must
// not go negative, as it would if their durations were summed.
func TestSelfTimeConcurrentGoroutines(t *testing.T) {
	tr := newTracer()
	root := tr.root("iteration")
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root.do(layerActors, "sleep", func() { time.Sleep(30 * time.Millisecond) })
		}()
	}
	wg.Wait()
	root.end()
	sum := analyze(tr.spans)
	if sum.selfNs[layerBench] < 0 {
		t.Fatalf("root self %d ns is negative: overlapping children were summed", sum.selfNs[layerBench])
	}
	children := sum.names["actors.sleep"]
	if children == nil || children.count != 2 {
		t.Fatalf("want two child spans, got %+v", children)
	}
	if sum.selfNs[layerBench] >= sum.rootNs-int64(25*time.Millisecond) {
		t.Errorf("root self %d ns does not exclude the children's union", sum.selfNs[layerBench])
	}
}

// TestSelfTimesSumToRoot checks the identity the traced run reports: with
// properly nested spans, the layers' self times add up to the root spans.
func TestSelfTimesSumToRoot(t *testing.T) {
	tr := newTracer()
	for it := 0; it < 3; it++ {
		root := tr.root("iteration")
		root.do(layerMemdb, "put", func() {})
		g := root.child(layerBench, "group")
		g.do(layerStreams, "reduce", func() {
			time.Sleep(time.Millisecond)
		})
		g.end()
		root.end()
	}
	sum := analyze(tr.spans)
	if sum.selfSumNs() != sum.rootNs {
		t.Errorf("self times sum to %d ns, roots to %d ns", sum.selfSumNs(), sum.rootNs)
	}
	if sum.roots != 3 {
		t.Errorf("roots = %d, want 3", sum.roots)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	root := tr.root("iteration")
	ran := false
	root.do(layerRdd, "x", func() { ran = true })
	root.end()
	if !ran {
		t.Fatal("span body did not run")
	}
}

func TestUnionLen(t *testing.T) {
	cases := []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{5, 10}, {0, 3}}, 8},
		{[][2]int64{{0, 10}, {2, 4}, {8, 15}}, 15},
		{[][2]int64{{0, 5}, {5, 7}}, 7},
	}
	for _, c := range cases {
		if got := unionLen(c.iv); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}
