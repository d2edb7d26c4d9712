package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"renaissance/internal/actors"
	"renaissance/internal/futures"
	"renaissance/internal/metrics"
	"renaissance/internal/stm"
)

// messagingReplay replays akka-uct's actor tree, reactors-style ask and
// tell, philosophers' write-contended Retry, stm-bench7's read-mostly
// traversals and future-genetic's Async/Sequence fan-out. Spans are
// recorded on the replay's own goroutine only; philosophers and
// stm-bench7 add one helper goroutine (two goroutines in all) that
// contends without spans.
type messagingReplay struct {
	seed     int64
	depth    int
	nodes    int64 // oracle node count of the seeded actor tree
	msgs     int
	meals    int
	parts    int
	ops      int
	pop      int
	gens     int
	genomes  [][]float64
	commits  atomic.Int64
	abortCtr int64 // STM aborts counted before the replay started
	visits   atomic.Int64
}

func newMessagingReplay(seed int64, scale float64) (replayer, error) {
	r := &messagingReplay{
		seed:  seed,
		depth: 8,
		msgs:  scaled(300, scale, 16),
		meals: scaled(120, scale, 8),
		parts: scaled(216, scale, 16),
		ops:   scaled(200, scale, 16),
		pop:   scaled(64, scale, 8),
		gens:  scaled(30, scale, 4),
	}
	r.nodes = r.countNodes(0, 1)
	r.abortCtr = metrics.Default.Get(metrics.StmAbort)
	rng := newRand(seed, "genetic")
	for i := 0; i < r.pop; i++ {
		g := make([]float64, 8)
		for j := range g {
			g[j] = rng.Float64()*20 - 10
		}
		r.genomes = append(r.genomes, g)
	}
	return r, nil
}

// fanout is the seeded, skewed child count of an actor-tree node.
func (r *messagingReplay) fanout(depth int, path int64) int {
	if depth < 3 {
		return 3
	}
	h := uint64(path)*1099511628211 ^ uint64(r.seed)*0x9E3779B97F4A7C15 + uint64(depth)
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return []int{0, 0, 1, 1, 2, 2, 3}[h%7]
}

func (r *messagingReplay) countNodes(depth int, path int64) int64 {
	n := int64(1)
	if depth >= r.depth {
		return n
	}
	for c := 0; c < r.fanout(depth, path); c++ {
		n += r.countNodes(depth+1, path*4+int64(c)+1)
	}
	return n
}

type visit struct {
	depth int
	path  int64
}

func (r *messagingReplay) iterate(root span) error {
	phases := []struct {
		name string
		run  func(span) error
	}{
		{"actor_tree", r.actorTree},
		{"ask_tell", r.askTell},
		{"philosophers", r.philosophers},
		{"traversals", r.traversals},
		{"genetic", r.genetic},
	}
	for _, p := range phases {
		sp := root.child(layerBench, p.name)
		err := p.run(sp)
		sp.end()
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *messagingReplay) actorTree(root span) error {
	var sys *actors.System
	root.do(layerActors, "new_system", func() { sys = actors.NewSystem(2) })
	r.visits.Store(0)
	var behave actors.ReceiverFunc
	behave = func(ctx *actors.Context, msg any) {
		v := msg.(visit)
		r.visits.Add(1)
		if v.depth >= r.depth {
			return
		}
		for c := 0; c < r.fanout(v.depth, v.path); c++ {
			ctx.Send(ctx.Spawn("node", behave), visit{v.depth + 1, v.path*4 + int64(c) + 1})
		}
	}
	var top *actors.Ref
	root.do(layerActors, "spawn", func() { top = sys.Spawn("root", behave) })
	root.do(layerActors, "tell", func() { top.Tell(visit{0, 1}) })
	root.do(layerActors, "quiesce", sys.AwaitQuiescence)
	root.do(layerActors, "shutdown", sys.Shutdown)
	if got := r.visits.Load(); got != r.nodes {
		return fmt.Errorf("messaging: actor tree visited %d nodes, want %d", got, r.nodes)
	}
	return nil
}

func (r *messagingReplay) askTell(root span) error {
	var sys *actors.System
	root.do(layerActors, "new_system", func() { sys = actors.NewSystem(2) })
	defer root.do(layerActors, "shutdown", sys.Shutdown)
	var echo, counter *actors.Ref
	var sum atomic.Int64
	root.do(layerActors, "spawn", func() {
		echo = sys.Spawn("echo", actors.ReceiverFunc(func(ctx *actors.Context, msg any) { ctx.Reply(msg.(int) + 1) }))
		counter = sys.Spawn("counter", actors.ReceiverFunc(func(ctx *actors.Context, msg any) { sum.Add(int64(msg.(int))) }))
	})
	for i := 0; i < r.msgs/4; i++ {
		var reply any
		root.do(layerActors, "ask", func() { reply = <-echo.Ask(i) })
		if reply != i+1 {
			return fmt.Errorf("messaging: ask %d answered %v", i, reply)
		}
	}
	for i := 1; i <= r.msgs; i++ {
		root.do(layerActors, "tell", func() { counter.Tell(i) })
	}
	root.do(layerActors, "quiesce", sys.AwaitQuiescence)
	if want := int64(r.msgs * (r.msgs + 1) / 2); sum.Load() != want {
		return fmt.Errorf("messaging: counter summed %d, want %d", sum.Load(), want)
	}
	return nil
}

// atomically runs fn in a transaction, in a span when sp is open, and
// counts the commit.
func (r *messagingReplay) atomically(sp span, fn func(tx *stm.Tx) error) error {
	var err error
	sp.do(layerStm, "atomically", func() { err = stm.Atomically(fn) })
	if err == nil {
		r.commits.Add(1)
	}
	return err
}

// philosophers has two philosophers share two forks, so every meal
// contends and the loser blocks in Retry.
func (r *messagingReplay) philosophers(root span) error {
	forks := [2]*stm.Ref{stm.NewRef(false), stm.NewRef(false)}
	eaten := [2]*stm.Ref{stm.NewRef(0), stm.NewRef(0)}
	dine := func(sp span, p int) {
		left, right := forks[p], forks[1-p]
		for m := 0; m < r.meals; m++ {
			_ = r.atomically(sp, func(tx *stm.Tx) error {
				if tx.Read(left).(bool) || tx.Read(right).(bool) {
					tx.Retry()
				}
				tx.Write(left, true)
				tx.Write(right, true)
				return nil
			})
			_ = r.atomically(sp, func(tx *stm.Tx) error {
				tx.Write(eaten[p], tx.Read(eaten[p]).(int)+1)
				tx.Write(left, false)
				tx.Write(right, false)
				return nil
			})
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		dine(span{}, 1)
	}()
	dine(root, 0)
	wg.Wait()
	for p, ref := range eaten {
		if got := stm.ReadAtomic(ref).(int); got != r.meals {
			return fmt.Errorf("messaging: philosopher %d ate %d meals, want %d", p, got, r.meals)
		}
	}
	return nil
}

// traversals runs read-only whole-structure transactions on the replay's
// goroutine while a helper commits one balanced transfer per four
// traversals (a read-mostly mix); every snapshot must keep the sum
// invariant.
func (r *messagingReplay) traversals(root span) error {
	refs := make([]*stm.Ref, r.parts)
	for i := range refs {
		refs[i] = stm.NewRef(100)
	}
	want := 100 * r.parts
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := newRand(r.seed, "transfers")
		for i := 0; i < r.ops/4; i++ {
			a, b := rng.Intn(r.parts), rng.Intn(r.parts)
			_ = r.atomically(span{}, func(tx *stm.Tx) error {
				tx.Write(refs[a], tx.Read(refs[a]).(int)-1)
				tx.Write(refs[b], tx.Read(refs[b]).(int)+1)
				return nil
			})
		}
	}()
	var err error
	for i := 0; i < r.ops && err == nil; i++ {
		err = r.atomically(root, func(tx *stm.Tx) error {
			sum := 0
			for _, ref := range refs {
				sum += tx.Read(ref).(int)
			}
			if sum != want {
				return fmt.Errorf("messaging: snapshot sum %d, want %d", sum, want)
			}
			return nil
		})
	}
	wg.Wait()
	return err
}

// genetic evolves a population whose fitness is evaluated with
// futures.Async and gathered with Sequence.
func (r *messagingReplay) genetic(root span) error {
	type scored struct {
		g   []float64
		fit float64
	}
	pop := append([][]float64(nil), r.genomes...)
	first, best := 0.0, 0.0
	for gen := 0; gen < r.gens; gen++ {
		futs := make([]*futures.Future[scored], len(pop))
		for i, g := range pop {
			root.do(layerFutures, "async", func() {
				futs[i] = futures.Async(func() (scored, error) {
					s := 0.0
					for _, x := range g {
						s += x * x
					}
					return scored{g, -s}, nil
				})
			})
		}
		var all []scored
		var err error
		var seq *futures.Future[[]scored]
		root.do(layerFutures, "sequence", func() { seq = futures.Sequence(futs) })
		root.do(layerFutures, "await", func() { all, err = seq.Await() })
		if err != nil {
			return fmt.Errorf("messaging: genetic generation %d: %w", gen, err)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].fit > all[j].fit })
		if gen == 0 {
			first = all[0].fit
		} else if all[0].fit < best {
			return fmt.Errorf("messaging: best fitness regressed %.4f -> %.4f", best, all[0].fit)
		}
		best = all[0].fit
		half := len(pop) / 2
		for i := 0; i < half; i++ {
			pop[i] = all[i].g
			child := make([]float64, len(all[i].g))
			for j, x := range all[i].g {
				child[j] = x * 0.7
			}
			pop[half+i] = child
		}
	}
	if r.gens >= 3 && best <= first {
		return fmt.Errorf("messaging: no fitness improvement from %.4f", first)
	}
	return nil
}

func (r *messagingReplay) layerMetrics(sum *traceSummary, out map[string]float64) {
	out["actors.ask_us"] = sum.meanNs(layerActors, "ask") / 1e3
	out["actors.tell_ns"] = sum.meanNs(layerActors, "tell")
	out["stm.atomically_us"] = sum.meanNs(layerStm, "atomically") / 1e3
	aborts := metrics.Default.Get(metrics.StmAbort) - r.abortCtr
	if c := r.commits.Load(); c > 0 {
		out["stm.commit_frac"] = float64(c) / float64(c+aborts)
	}
	out["futures.async_us"] = sum.meanNs(layerFutures, "async") / 1e3
	out["futures.await_us"] = sum.meanNs(layerFutures, "await") / 1e3
}
