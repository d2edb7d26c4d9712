package renaissance

import (
	"fmt"
	"sync"

	"renaissance/internal/core"
	"renaissance/internal/graphdb"
	"renaissance/internal/memdb"
)

func init() {
	register("db-shootout",
		"Parallel shootout across the in-memory key-value engines.",
		[]string{"query-processing", "data structures"}, newDBShootout)
	register("neo4j-analytics",
		"Analytical queries and transactions on the property-graph store.",
		[]string{"query processing", "transactions"}, newNeo4jAnalytics)
}

// --- db-shootout ---

type dbShootoutWorkload struct {
	keys    int
	ops     int
	workers int
	lens    []int
}

func newDBShootout(cfg core.Config) (core.Workload, error) {
	return &dbShootoutWorkload{
		keys:    cfg.Scale(2000),
		ops:     cfg.Scale(4000),
		workers: 4,
	}, nil
}

func (w *dbShootoutWorkload) RunIteration() error {
	w.lens = w.lens[:0]
	for _, engine := range memdb.Engines() {
		// Load phase.
		for i := 0; i < w.keys; i++ {
			engine.Put(fmt.Sprintf("key-%06d", i), []byte{byte(i), byte(i >> 8)})
		}
		// Parallel mixed phase: the same deterministic op stream split
		// across workers (disjoint key ranges avoid cross-engine
		// divergence from racy overwrites).
		var wg sync.WaitGroup
		for g := 0; g < w.workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				state := uint64(g + 1)
				lo := g * w.keys / w.workers
				hi := (g + 1) * w.keys / w.workers
				for i := 0; i < w.ops/w.workers; i++ {
					state = state*6364136223846793005 + 1442695040888963407
					k := lo + int((state>>33)%uint64(hi-lo))
					key := fmt.Sprintf("key-%06d", k)
					switch (state >> 20) % 10 {
					case 0, 1, 2, 3, 4, 5: // reads dominate
						engine.Get(key)
					case 6, 7:
						engine.Put(key, []byte{byte(i)})
					case 8:
						engine.Range(key, key+"~", func(string, []byte) bool { return false })
					case 9:
						engine.Delete(key)
						engine.Put(key, []byte{byte(i)}) // keep key population stable
					}
				}
			}(g)
		}
		wg.Wait()
		w.lens = append(w.lens, engine.Len())
	}
	return nil
}

func (w *dbShootoutWorkload) Validate() error {
	if len(w.lens) != 3 {
		return fmt.Errorf("db-shootout: %d engines ran", len(w.lens))
	}
	for i := 1; i < len(w.lens); i++ {
		if w.lens[i] != w.lens[0] {
			return fmt.Errorf("db-shootout: engines disagree on size: %v", w.lens)
		}
	}
	if w.lens[0] != w.keys {
		return fmt.Errorf("db-shootout: size %d, want %d", w.lens[0], w.keys)
	}
	return nil
}

// --- neo4j-analytics ---

type neo4jWorkload struct {
	users   int
	follows int
	txOps   int
	checked bool
}

func newNeo4jAnalytics(cfg core.Config) (core.Workload, error) {
	return &neo4jWorkload{
		users:   cfg.Scale(300),
		follows: 6,
		txOps:   cfg.Scale(120),
	}, nil
}

func (w *neo4jWorkload) RunIteration() error {
	g := graphdb.New()

	// Build a follower graph in batched transactions.
	ids := make([]graphdb.NodeID, w.users)
	const batch = 50
	for lo := 0; lo < w.users; lo += batch {
		tx := g.WriteTx()
		hi := lo + batch
		if hi > w.users {
			hi = w.users
		}
		for i := lo; i < hi; i++ {
			id, err := tx.CreateNode("User", map[string]any{"region": i % 4})
			if err != nil {
				return err
			}
			ids[i] = id
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	tx := g.WriteTx()
	for i := 0; i < w.users; i++ {
		for k := 1; k <= w.follows; k++ {
			if err := tx.Relate(ids[i], ids[(i+k*k)%w.users], "FOLLOWS", nil); err != nil {
				return err
			}
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}

	// Concurrent analytics + write transactions.
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for worker := 0; worker < 2; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < w.txOps; i++ {
				switch i % 4 {
				case 0:
					if err := w.checkFollows(g.Match("User", "FOLLOWS", "User")); err != nil {
						errCh <- err
						return
					}
				case 1:
					byRegion := g.AggregateByProp("User", "region")
					if len(byRegion) != min(w.users, 4) {
						errCh <- fmt.Errorf("neo4j-analytics: aggregate has %d regions", len(byRegion))
						return
					}
					for reg := 0; reg < 4; reg++ {
						if want := (w.users - reg + 3) / 4; byRegion[reg] != want {
							errCh <- fmt.Errorf("neo4j-analytics: region %d has %d users, want %d",
								reg, byRegion[reg], want)
							return
						}
					}
				case 2:
					if d := g.ShortestPath(ids[0], ids[w.users/2], "FOLLOWS"); d < 0 {
						errCh <- fmt.Errorf("neo4j-analytics: no path across the graph")
						return
					}
				case 3:
					wtx := g.WriteTx()
					id, err := wtx.CreateNode("Post", map[string]any{"by": worker})
					if err == nil {
						err = wtx.Relate(ids[(worker*31+i)%w.users], id, "POSTED", nil)
					}
					if err == nil {
						err = wtx.Commit()
					}
					if err != nil {
						errCh <- err
						return
					}
				}
			}
		}(worker)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	if err := w.checkTop(g.TopDegree("User", 5), ids); err != nil {
		return err
	}
	w.checked = true
	return nil
}

// checkTop checks the top-degree query against the exact answer: the five
// users of highest closed-form degree, ties by ascending ID (ids ascends
// with the user index).
func (w *neo4jWorkload) checkTop(top, ids []graphdb.NodeID) error {
	if len(top) != 5 {
		return fmt.Errorf("neo4j-analytics: top-degree query returned %d rows", len(top))
	}
	var want [5]struct {
		id  graphdb.NodeID
		deg int
	}
	n := 0
	for u, id := range ids {
		d := w.degree(u)
		if n == len(want) && d <= want[n-1].deg {
			continue
		}
		n = min(n+1, len(want))
		j := n - 1
		for ; j > 0 && want[j-1].deg < d; j-- {
			want[j] = want[j-1]
		}
		want[j].id, want[j].deg = id, d
	}
	for i, id := range top {
		if id != want[i].id {
			return fmt.Errorf("neo4j-analytics: top-degree row %d is node %d, want node %d (degree %d)",
				i, id, want[i].id, want[i].deg)
		}
	}
	return nil
}

// checkFollows checks the FOLLOWS match exactly: users*follows rows in
// ascending (From, To) order, with equal neighbours only for the parallel
// edges that coinciding offsets produce on small graphs.
func (w *neo4jWorkload) checkFollows(rows []graphdb.MatchRow) error {
	if len(rows) != w.users*w.follows {
		return fmt.Errorf("neo4j-analytics: %d FOLLOWS rows, want %d", len(rows), w.users*w.follows)
	}
	dups := 0
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.From > b.From || a.From == b.From && a.To > b.To {
			return fmt.Errorf("neo4j-analytics: FOLLOWS row %d %v follows %v out of order", i, b, a)
		}
		if a.From == b.From && a.To == b.To {
			dups++
		}
	}
	if want := w.users * w.parallelOffsets(); dups != want {
		return fmt.Errorf("neo4j-analytics: %d repeated FOLLOWS rows, want %d", dups, want)
	}
	return nil
}

// parallelOffsets counts the offsets k*k (k = 1..follows) that repeat an
// earlier one modulo users: each such offset gives every user a parallel
// FOLLOWS edge.
func (w *neo4jWorkload) parallelOffsets() int {
	n := 0
	for k := 2; k <= w.follows; k++ {
		for j := 1; j < k; j++ {
			if (k*k-j*j)%w.users == 0 {
				n++
				break
			}
		}
	}
	return n
}

// degree is the closed-form total degree of user u: follows outgoing and
// follows incoming FOLLOWS edges (user u is followed by u-k*k for each k),
// plus one POSTED edge for each write op i (i%4 == 3) of each worker that
// posted as user (worker*31+i) mod users.
func (w *neo4jWorkload) degree(u int) int {
	deg := 2 * w.follows
	for worker := 0; worker < 2; worker++ {
		for i := ((u-worker*31)%w.users + w.users) % w.users; i < w.txOps; i += w.users {
			if i%4 == 3 {
				deg++
			}
		}
	}
	return deg
}

func (w *neo4jWorkload) Validate() error {
	if !w.checked {
		return fmt.Errorf("neo4j-analytics: queries never verified")
	}
	return nil
}
