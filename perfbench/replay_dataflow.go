package main

import (
	"fmt"
	"math"
	"strings"

	"renaissance/internal/forkjoin"
	"renaissance/internal/rdd"
	"renaissance/internal/rx"
	"renaissance/internal/streams"
)

// rddParts is the partition count the rdd workloads use; every rdd action
// runs a parallel-for over this many chunks.
const rddParts = 8

var letterScores = [26]int{1, 3, 3, 2, 1, 4, 2, 4, 1, 8, 5, 1, 3, 1, 1, 3, 10, 1, 1, 1, 1, 4, 4, 8, 4, 10}

// rack is the letter multiset the scrabble puzzle plays against.
const rack = "aabdeeilmnorstuz"

// dataflowReplay replays scrabble on streams and on rx, ALS, PageRank and
// logistic regression on the rdd engine, k-means on a forkjoin pool, and an
// empty parallel-for over the rdd chunk count, from one goroutine.
// The scrabble answers must match a plain-loop oracle and PageRank's rank
// mass must be conserved.
type dataflowReplay struct {
	words     []string
	bestScore int
	rackHist  map[rune]int

	ratings []rdd.Rating
	rgraph  *rdd.RatingsGraph
	web     *rdd.Graph
	webN    int
	points  []rdd.LabeledPoint
	kpoints [][2]float64
}

func newDataflowReplay(seed int64, scale float64) (replayer, error) {
	rng := newRand(seed, "dataflow")
	r := &dataflowReplay{rackHist: map[rune]int{}}
	for _, c := range rack {
		r.rackHist[c]++
	}
	syll := []string{"ba", "re", "to", "qua", "zen", "lix", "mor", "da", "pi", "shu", "gr", "ost", "an", "el"}
	for i := 0; i < scaled(2000, scale, 32); i++ {
		var b strings.Builder
		for p := 2 + rng.Intn(3); p > 0; p-- {
			b.WriteString(syll[rng.Intn(len(syll))])
		}
		r.words = append(r.words, b.String())
	}
	for _, w := range r.words {
		r.bestScore = max(r.bestScore, r.oracleScore(w))
	}

	users, items, rank := scaled(60, scale, 8), scaled(40, scale, 6), 4
	uf, itf := randMat(rng, users, rank), randMat(rng, items, rank)
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			if rng.Float64() < 0.4 {
				dot := 0.0
				for k := 0; k < rank; k++ {
					dot += uf[u][k] * itf[i][k]
				}
				r.ratings = append(r.ratings, rdd.Rating{User: u, Item: i, Value: dot})
			}
		}
	}
	r.rgraph = rdd.NewRatingsGraph(r.ratings)

	r.webN = scaled(600, scale, 16)
	var edges []rdd.Pair[int, int]
	for v := 0; v < r.webN; v++ {
		edges = append(edges, rdd.KV(v, (v+1)%r.webN))
		for k := 0; k < 3; k++ {
			edges = append(edges, rdd.KV(v, rng.Intn(v/4+1)))
		}
	}
	r.web = rdd.NewGraph(edges)

	for i := 0; i < scaled(4000, scale, 64); i++ {
		label := i % 2
		f := make([]float64, 10)
		for j := range f {
			f[j] = rng.NormFloat64() + float64(label*2-1)*1.25
		}
		r.points = append(r.points, rdd.LabeledPoint{Features: f, Label: label})
	}
	for i := 0; i < scaled(6000, scale, 64); i++ {
		c := i % 5
		r.kpoints = append(r.kpoints, [2]float64{float64(c*10) + rng.NormFloat64(), float64((c%2)*10) + rng.NormFloat64()})
	}
	return r, nil
}

func randMat(rng interface{ Float64() float64 }, rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = rng.Float64()
		}
	}
	return m
}

// oracleScore scores a word against the rack with plain loops, or -1.
func (r *dataflowReplay) oracleScore(w string) int {
	var used [26]int
	s := 0
	for _, c := range w {
		used[c-'a']++
		if used[c-'a'] > r.rackHist[c] {
			return -1
		}
		s += letterScores[c-'a']
	}
	return s
}

func (r *dataflowReplay) iterate(root span) error {
	if err := r.scrabbleStreams(root); err != nil {
		return err
	}
	if err := r.scrabbleRx(root); err != nil {
		return err
	}
	if err := r.rddKernels(root); err != nil {
		return err
	}
	r.kmeans(root)
	for i := 0; i < 8; i++ {
		root.do(layerForkjoin, "for_empty", func() { forkjoin.Shared().For(rddParts, 1, func(lo, hi int) {}) })
	}
	return nil
}

// scrabbleStreams mirrors the scrabble spec's pipeline. The callbacks are
// the benchmark's own code (bench spans); the GroupBy and Reduce calls
// they make are streams spans.
func (r *dataflowReplay) scrabbleStreams(root span) error {
	var best int
	st := root.child(layerStreams, "scrabble")
	playable := streams.FromSlice(r.words).Filter(func(word string) bool {
		cb := st.child(layerBench, "filter")
		defer cb.end()
		var hist map[rune][]rune
		cb.do(layerStreams, "groupby", func() {
			hist = streams.GroupBy(streams.FromSlice([]rune(word)), func(c rune) rune { return c })
		})
		for c, g := range hist {
			if len(g) > r.rackHist[c] {
				return false
			}
		}
		return true
	})
	scored := streams.Map(playable, func(word string) int {
		cb := st.child(layerBench, "score")
		defer cb.end()
		var s int
		cb.do(layerStreams, "reduce", func() {
			s = streams.Reduce(streams.FromSlice([]rune(word)), 0, func(acc int, c rune) int { return acc + letterScores[c-'a'] })
		})
		return s
	})
	best = streams.Reduce(scored, 0, func(a, b int) int { return max(a, b) })
	st.end()
	if best != r.bestScore {
		return fmt.Errorf("dataflow: streams scrabble best %d, oracle %d", best, r.bestScore)
	}
	return nil
}

func (r *dataflowReplay) scrabbleRx(root span) error {
	var best int
	var err error
	st := root.child(layerRx, "scrabble")
	scores := rx.Map(rx.Filter(rx.FromSlice(r.words), func(word string) bool {
		cb := st.child(layerBench, "filter")
		defer cb.end()
		return r.oracleScore(word) >= 0
	}), func(word string) int {
		s := 0
		for _, c := range word {
			s += letterScores[c-'a']
		}
		return s
	})
	best, err = rx.Reduce(scores, 0, func(a, b int) int { return max(a, b) }).BlockingFirst()
	st.end()
	if err != nil {
		return fmt.Errorf("dataflow: rx scrabble: %w", err)
	}
	if best != r.bestScore {
		return fmt.Errorf("dataflow: rx scrabble best %d, oracle %d", best, r.bestScore)
	}
	return nil
}

func (r *dataflowReplay) rddKernels(root span) error {
	var model *rdd.ALSModel
	var err error
	root.do(layerRdd, "als_train", func() { model, err = rdd.ALSTrain(r.rgraph, 4, 8, 0.01, 7) })
	if err != nil {
		return fmt.Errorf("dataflow: als: %w", err)
	}
	var rmse float64
	root.do(layerRdd, "rmse", func() { rmse = model.RMSE(r.ratings) })
	if rmse > 0.15 {
		return fmt.Errorf("dataflow: als RMSE %.4f above 0.15", rmse)
	}

	var ranks map[int]float64
	root.do(layerRdd, "pagerank", func() { ranks = r.web.PageRank(10, 0.85) })
	total := 0.0
	for _, v := range ranks {
		total += v
	}
	if len(ranks) != r.webN || math.Abs(total/float64(r.webN)-1) > 1e-9 {
		return fmt.Errorf("dataflow: pagerank mass %.12f over %d vertices, want 1", total/float64(r.webN), len(ranks))
	}

	var pts *rdd.RDD[rdd.LabeledPoint]
	root.do(layerRdd, "parallelize", func() { pts = rdd.Parallelize(r.points, rddParts) })
	var w []float64
	root.do(layerRdd, "logreg", func() { w, err = rdd.LogisticRegression(pts, 40, 1.0) })
	if err != nil {
		return fmt.Errorf("dataflow: logistic regression: %w", err)
	}
	correct := 0
	for _, p := range r.points {
		if (rdd.PredictLogistic(w, p.Features) > 0.5) == (p.Label == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(r.points)); acc < 0.8 {
		return fmt.Errorf("dataflow: logistic regression accuracy %.3f below 0.8", acc)
	}
	return nil
}

type kmAcc struct {
	sums   [5][2]float64
	counts [5]int
}

// kmeans runs eight k-means rounds by recursive fork-join on a private
// pool. The leaf bodies run on the pool's workers, so their time is part
// of the forkjoin span.
func (r *dataflowReplay) kmeans(root span) {
	var pool *forkjoin.Pool
	root.do(layerForkjoin, "new_pool", func() { pool = forkjoin.NewPool(2) })
	var cent [5][2]float64
	for c := range cent {
		cent[c] = r.kpoints[c]
	}
	var assign func(lo, hi int) forkjoin.Fn
	assign = func(lo, hi int) forkjoin.Fn {
		return func(w *forkjoin.Worker) any {
			if hi-lo <= 512 {
				var acc kmAcc
				for _, p := range r.kpoints[lo:hi] {
					best, bestD := 0, math.Inf(1)
					for c, ct := range cent {
						dx, dy := p[0]-ct[0], p[1]-ct[1]
						if d := dx*dx + dy*dy; d < bestD {
							best, bestD = c, d
						}
					}
					acc.sums[best][0] += p[0]
					acc.sums[best][1] += p[1]
					acc.counts[best]++
				}
				return acc
			}
			mid := (lo + hi) / 2
			left := w.Fork(assign(lo, mid))
			right := assign(mid, hi)(w).(kmAcc)
			l := w.Join(left).(kmAcc)
			for c := range right.counts {
				right.sums[c][0] += l.sums[c][0]
				right.sums[c][1] += l.sums[c][1]
				right.counts[c] += l.counts[c]
			}
			return right
		}
	}
	for round := 0; round < 8; round++ {
		var acc kmAcc
		root.do(layerForkjoin, "invoke", func() { acc = pool.Invoke(assign(0, len(r.kpoints))).(kmAcc) })
		for c := range cent {
			if acc.counts[c] > 0 {
				cent[c] = [2]float64{acc.sums[c][0] / float64(acc.counts[c]), acc.sums[c][1] / float64(acc.counts[c])}
			}
		}
	}
	root.do(layerForkjoin, "close", pool.Close)
}

func (r *dataflowReplay) layerMetrics(sum *traceSummary, out map[string]float64) {
	out["streams.scrabble_ms"] = sum.meanNs(layerStreams, "scrabble") / 1e6
	out["streams.groupby_us"] = sum.meanNs(layerStreams, "groupby") / 1e3
	out["rx.scrabble_ms"] = sum.meanNs(layerRx, "scrabble") / 1e6
	out["rdd.als_train_ms"] = sum.meanNs(layerRdd, "als_train") / 1e6
	out["rdd.pagerank_ms"] = sum.meanNs(layerRdd, "pagerank") / 1e6
	out["rdd.logreg_ms"] = sum.meanNs(layerRdd, "logreg") / 1e6
	out["forkjoin.for_empty_us"] = sum.meanNs(layerForkjoin, "for_empty") / 1e3
}
