package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// layer names a module of the system under test. Spans are attributed to
// the layer whose public function they wrap; layerBench is the
// benchmark's own code (the replay loop and the callbacks it supplies).
type layer uint8

const (
	layerBench layer = iota
	layerMemdb
	layerGraphdb
	layerNetstack
	layerFutures
	layerMinilang
	layerRvm
	layerStreams
	layerRx
	layerRdd // rdd and lin: lin is reachable only through rdd
	layerForkjoin
	layerActors
	layerStm
	numLayers
)

var layerNames = [numLayers]string{
	"bench", "memdb", "graphdb", "netstack", "futures", "minilang", "rvm",
	"streams", "rx", "rdd", "forkjoin", "actors", "stm",
}

func (l layer) String() string { return layerNames[l] }

// spanRec is one recorded span. Times are nanoseconds since the tracer's
// epoch; parent is the index of the enclosing span, or -1 for a root.
type spanRec struct {
	parent     int32
	layer      layer
	name       string
	start, end int64
}

// tracer keeps every span of a traced run in memory; they are analysed and
// written out when the run ends. A nil *tracer records nothing, so replay
// code calls the same span methods whether tracing is on or off.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanRec
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// maxSpans bounds the spans one traced run keeps (about 12 MB in memory and
// as CSV); once reached, no further traced iteration starts.
const maxSpans = 250_000

// full reports whether the tracer holds maxSpans spans; a nil tracer never
// fills.
func (t *tracer) full() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) >= maxSpans
}

// span is a handle to an open span; the zero value (or one from a nil
// tracer) is a no-op.
type span struct {
	t  *tracer
	id int32
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) open(parent int32, l layer, name string) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{parent: parent, layer: l, name: name, start: t.now()})
	t.mu.Unlock()
	return span{t: t, id: id}
}

// root opens a root span of the bench layer: one replay iteration.
func (t *tracer) root(name string) span { return t.open(-1, layerBench, name) }

// child opens a span nested in s.
func (s span) child(l layer, name string) span {
	if s.t == nil {
		return span{}
	}
	return s.t.open(s.id, l, name)
}

// end closes the span.
func (s span) end() {
	if s.t == nil {
		return
	}
	now := s.t.now()
	s.t.mu.Lock()
	s.t.spans[s.id].end = now
	s.t.mu.Unlock()
}

// do runs f inside a child span of s.
func (s span) do(l layer, name string, f func()) {
	c := s.child(l, name)
	f()
	c.end()
}

// nameStat aggregates the spans of one layer and name.
type nameStat struct {
	count int
	total int64 // summed durations, ns
}

// traceSummary is the analysis of a set of spans.
type traceSummary struct {
	roots  int
	rootNs int64            // summed root durations
	selfNs [numLayers]int64 // per-layer self time
	names  map[string]*nameStat
}

// meanNs returns the mean duration of the spans named layer.name.
func (s *traceSummary) meanNs(l layer, name string) float64 {
	st := s.names[l.String()+"."+name]
	if st == nil || st.count == 0 {
		return 0
	}
	return float64(st.total) / float64(st.count)
}

// perRootNs returns the summed duration of the spans named layer.name per
// root span.
func (s *traceSummary) perRootNs(l layer, name string) float64 {
	st := s.names[l.String()+"."+name]
	if st == nil || s.roots == 0 {
		return 0
	}
	return float64(st.total) / float64(s.roots)
}

// selfSumNs sums the self time of every layer.
func (s *traceSummary) selfSumNs() int64 {
	var sum int64
	for _, v := range s.selfNs {
		sum += v
	}
	return sum
}

// analyze computes self times: a span's self time is its duration minus
// the length of the union of its children's intervals (clipped to the
// span), so children that overlap — for example spans opened by
// concurrent goroutines under one parent — are not subtracted twice.
func analyze(spans []spanRec) *traceSummary {
	sum := &traceSummary{names: map[string]*nameStat{}}
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	var iv [][2]int64
	for i, s := range spans {
		dur := s.end - s.start
		if s.parent < 0 {
			sum.roots++
			sum.rootNs += dur
		}
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sum.selfNs[s.layer] += dur - unionLen(iv)
		key := s.layer.String() + "." + s.name
		st := sum.names[key]
		if st == nil {
			st = &nameStat{}
			sum.names[key] = st
		}
		st.count++
		st.total += dur
	}
	return sum
}

// unionLen returns the total length covered by the intervals; it sorts iv.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the spans as CSV (id,parent,layer,name,start_ns,end_ns)
// to path, creating its directory.
func writeSpans(path string, spans []spanRec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,layer,name,start_ns,end_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d\n", i, s.parent, s.layer, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
