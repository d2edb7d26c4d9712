package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"slices"
	"sort"

	"renaissance/internal/graphdb"
	"renaissance/internal/memdb"
)

const (
	opGet = iota
	opPut
	opRange
	opDelete
)

type memOp struct {
	kind  uint8
	k, hi int // key index; hi is the exclusive range end index
	value []byte
}

type graphQuery struct {
	kind     int // 0 match, 1 aggregate, 2 shortest path, 3 write tx
	src, dst int
	want     int // expected hop count for shortest path
}

// storeReplay replays db-shootout's engine shootout (a bulk load, then a
// 60/20/10/10 get/put/range/delete mix, on every memdb engine) and
// neo4j-analytics' graph build and query mix on graphdb, from a single
// goroutine. Every operation's result is checked against a plain
// map model computed at set-up.
type storeReplay struct {
	keys     []string // sorted key universe
	initial  [][]byte
	ops      []memOp
	wantOps  [32]byte // digest of every op's expected outcome
	wantScan [32]byte // digest of the model's final contents

	users   int
	follows [][2]int
	queries []graphQuery
}

func newStoreReplay(seed int64, scale float64) (replayer, error) {
	rng := newRand(seed, "store")
	r := &storeReplay{}
	nKeys := scaled(2000, scale, 64)
	seen := map[string]bool{}
	for len(r.keys) < nKeys {
		k := fmt.Sprintf("k%010x", rng.Int63n(1<<40))
		if !seen[k] {
			seen[k] = true
			r.keys = append(r.keys, k)
		}
	}
	sort.Strings(r.keys)
	randVal := func() []byte {
		v := make([]byte, 8+rng.Intn(17))
		rng.Read(v)
		return v
	}
	for range r.keys {
		r.initial = append(r.initial, randVal())
	}
	for i := 0; i < scaled(4000, scale, 100); i++ {
		op := memOp{k: rng.Intn(nKeys)}
		switch p := rng.Intn(100); {
		case p < 60:
			op.kind = opGet
		case p < 80:
			op.kind, op.value = opPut, randVal()
		case p < 90:
			op.kind, op.hi = opRange, min(nKeys-1, op.k+1+rng.Intn(16))
		default:
			op.kind = opDelete
		}
		r.ops = append(r.ops, op)
	}
	r.modelMemdb()

	r.users = scaled(300, scale, 16)
	for u := 0; u < r.users; u++ {
		picked := map[int]bool{u: true}
		for f := 0; f < 6; f++ {
			v := rng.Intn(r.users)
			for picked[v] {
				v = (v + 1) % r.users
			}
			picked[v] = true
			r.follows = append(r.follows, [2]int{u, v})
		}
	}
	adj := make([][]int, r.users)
	for _, e := range r.follows {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	for i := 0; i < scaled(120, scale, 8); i++ {
		q := graphQuery{kind: i % 4, src: rng.Intn(r.users), dst: rng.Intn(r.users)}
		if q.kind == 2 {
			q.want = bfs(adj, q.src, q.dst)
		}
		r.queries = append(r.queries, q)
	}
	return r, nil
}

// bfs returns the directed hop count from src to dst, or -1.
func bfs(adj [][]int, src, dst int) int {
	if src == dst {
		return 0
	}
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	frontier := []int{src}
	for len(frontier) > 0 {
		var next []int
		for _, u := range frontier {
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					if v == dst {
						return dist[v]
					}
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return -1
}

// opDigest folds one op outcome into h.
func opDigest(h hash.Hash, kind uint8, found bool, n int, v []byte) {
	var b [10]byte
	b[0] = kind
	if found {
		b[1] = 1
	}
	binary.LittleEndian.PutUint64(b[2:], uint64(n))
	h.Write(b[:])
	h.Write(v)
}

// scanDigest folds one (key, value) pair of a full scan into h.
func scanDigest(h hash.Hash, k string, v []byte) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(v)))
	h.Write([]byte(k))
	h.Write(b[:])
	h.Write(v)
}

// modelMemdb computes the expected op outcomes and final contents with a
// plain map.
func (r *storeReplay) modelMemdb() {
	m := map[string][]byte{}
	for i, k := range r.keys {
		m[k] = r.initial[i]
	}
	h := sha256.New()
	for _, op := range r.ops {
		k := r.keys[op.k]
		switch op.kind {
		case opGet:
			v, ok := m[k]
			opDigest(h, op.kind, ok, len(v), v)
		case opPut:
			m[k] = op.value
			opDigest(h, op.kind, true, 0, nil)
		case opRange:
			rh := sha256.New()
			n := 0
			for _, rk := range r.keys[op.k:op.hi] {
				if v, ok := m[rk]; ok {
					n++
					scanDigest(rh, rk, v)
				}
			}
			opDigest(h, op.kind, n > 0, n, rh.Sum(nil))
		case opDelete:
			_, ok := m[k]
			delete(m, k)
			opDigest(h, op.kind, ok, 0, nil)
		}
	}
	copy(r.wantOps[:], h.Sum(nil))
	sh := sha256.New()
	for _, k := range r.keys {
		if v, ok := m[k]; ok {
			scanDigest(sh, k, v)
		}
	}
	copy(r.wantScan[:], sh.Sum(nil))
}

// iterate runs the shootout on fresh engines, then the graph workload.
// Every engine's full-Range digest must equal the model's, so the three
// engines hold byte-identical contents.
func (r *storeReplay) iterate(root span) error {
	var engines []memdb.Store
	root.do(layerMemdb, "engines", func() { engines = memdb.Engines() })
	for _, e := range engines {
		if err := r.runEngine(root, e); err != nil {
			return err
		}
	}
	return r.runGraph(root)
}

// runEngine loads and exercises one engine, checking every op outcome and
// the digest of a full Range over its final contents.
func (r *storeReplay) runEngine(root span, e memdb.Store) error {
	g := root.child(layerBench, "engine:"+e.Name())
	defer g.end()
	for i, k := range r.keys {
		s := g.child(layerMemdb, "put")
		e.Put(k, r.initial[i])
		s.end()
	}
	h := sha256.New()
	for _, op := range r.ops {
		k := r.keys[op.k]
		switch op.kind {
		case opGet:
			s := g.child(layerMemdb, "get")
			v, ok := e.Get(k)
			s.end()
			opDigest(h, op.kind, ok, len(v), v)
		case opPut:
			s := g.child(layerMemdb, "put")
			e.Put(k, op.value)
			s.end()
			opDigest(h, op.kind, true, 0, nil)
		case opRange:
			rh := sha256.New()
			n := 0
			s := g.child(layerMemdb, "range")
			e.Range(k, r.keys[op.hi], func(rk string, v []byte) bool {
				n++
				scanDigest(rh, rk, v)
				return true
			})
			s.end()
			opDigest(h, op.kind, n > 0, n, rh.Sum(nil))
		case opDelete:
			s := g.child(layerMemdb, "delete")
			ok := e.Delete(k)
			s.end()
			opDigest(h, op.kind, ok, 0, nil)
		}
	}
	if [32]byte(h.Sum(nil)) != r.wantOps {
		return fmt.Errorf("store: %s op results differ from the map model", e.Name())
	}
	sh := sha256.New()
	s := g.child(layerMemdb, "scan")
	e.Range("", "\xff", func(k string, v []byte) bool {
		scanDigest(sh, k, v)
		return true
	})
	s.end()
	if [32]byte(sh.Sum(nil)) != r.wantScan {
		return fmt.Errorf("store: %s contents differ from the map model", e.Name())
	}
	return nil
}

// runGraph builds the follower graph in batched transactions and runs the
// query mix, checking each answer against the benchmark's own edge list.
func (r *storeReplay) runGraph(root span) error {
	var g *graphdb.Graph
	root.do(layerGraphdb, "new", func() { g = graphdb.New() })
	ids := make([]graphdb.NodeID, r.users)
	const batch = 50
	var err error
	for lo := 0; lo < r.users && err == nil; lo += batch {
		var tx *graphdb.Tx
		root.do(layerGraphdb, "write_tx", func() { tx = g.WriteTx() })
		for i := lo; i < min(lo+batch, r.users) && err == nil; i++ {
			root.do(layerGraphdb, "create_node", func() {
				ids[i], err = tx.CreateNode("User", map[string]any{"region": i % 4})
			})
		}
		if err == nil {
			root.do(layerGraphdb, "commit", func() { err = tx.Commit() })
		}
	}
	if err != nil {
		return fmt.Errorf("store: graph build: %w", err)
	}
	var tx *graphdb.Tx
	root.do(layerGraphdb, "write_tx", func() { tx = g.WriteTx() })
	for _, e := range r.follows {
		root.do(layerGraphdb, "relate", func() { err = tx.Relate(ids[e[0]], ids[e[1]], "FOLLOWS", nil) })
		if err != nil {
			return fmt.Errorf("store: relate: %w", err)
		}
	}
	root.do(layerGraphdb, "commit", func() { err = tx.Commit() })
	if err != nil {
		return fmt.Errorf("store: commit follows: %w", err)
	}

	posted := make([]int, r.users)
	for qi, q := range r.queries {
		switch q.kind {
		case 0:
			var rows []graphdb.MatchRow
			root.do(layerGraphdb, "match", func() { rows = g.Match("User", "FOLLOWS", "User") })
			if err := r.checkMatch(rows, ids); err != nil {
				return err
			}
		case 1:
			var agg map[any]int
			root.do(layerGraphdb, "aggregate", func() { agg = g.AggregateByProp("User", "region") })
			for reg := 0; reg < 4; reg++ {
				want := (r.users - reg + 3) / 4
				if agg[reg] != want {
					return fmt.Errorf("store: region %d has %d users, want %d", reg, agg[reg], want)
				}
			}
		case 2:
			var d int
			root.do(layerGraphdb, "shortest_path", func() { d = g.ShortestPath(ids[q.src], ids[q.dst], "FOLLOWS") })
			if d != q.want {
				return fmt.Errorf("store: shortest path %d->%d is %d, want %d", q.src, q.dst, d, q.want)
			}
		case 3:
			var wtx *graphdb.Tx
			root.do(layerGraphdb, "write_tx", func() { wtx = g.WriteTx() })
			var id graphdb.NodeID
			root.do(layerGraphdb, "create_node", func() { id, err = wtx.CreateNode("Post", map[string]any{"q": qi}) })
			if err == nil {
				root.do(layerGraphdb, "relate", func() { err = wtx.Relate(ids[q.src], id, "POSTED", nil) })
			}
			if err == nil {
				root.do(layerGraphdb, "commit", func() { err = wtx.Commit() })
			}
			if err != nil {
				return fmt.Errorf("store: post tx: %w", err)
			}
			posted[q.src]++
		}
	}
	var top []graphdb.NodeID
	root.do(layerGraphdb, "top_degree", func() { top = g.TopDegree("User", 5) })
	return r.checkTop(top, ids, posted)
}

func (r *storeReplay) checkMatch(rows []graphdb.MatchRow, ids []graphdb.NodeID) error {
	if len(rows) != len(r.follows) {
		return fmt.Errorf("store: match returned %d rows, want %d", len(rows), len(r.follows))
	}
	want := make([][2]graphdb.NodeID, len(r.follows))
	for i, e := range r.follows {
		want[i] = [2]graphdb.NodeID{ids[e[0]], ids[e[1]]}
	}
	slices.SortFunc(want, func(a, b [2]graphdb.NodeID) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	for i, row := range rows {
		if row.From != want[i][0] || row.To != want[i][1] || row.RelType != "FOLLOWS" {
			return fmt.Errorf("store: match row %d is %v, want %v", i, row, want[i])
		}
	}
	return nil
}

func (r *storeReplay) checkTop(top, ids []graphdb.NodeID, posted []int) error {
	deg := make([]int, r.users)
	for _, e := range r.follows {
		deg[e[0]]++
		deg[e[1]]++
	}
	order := make([]int, r.users)
	for i := range order {
		order[i] = i
		deg[i] += posted[i]
	}
	sort.Slice(order, func(a, b int) bool {
		if deg[order[a]] != deg[order[b]] {
			return deg[order[a]] > deg[order[b]]
		}
		return ids[order[a]] < ids[order[b]]
	})
	if len(top) != 5 {
		return fmt.Errorf("store: top-degree returned %d rows", len(top))
	}
	for i, id := range top {
		if id != ids[order[i]] {
			return fmt.Errorf("store: top-degree row %d is node %d, want %d", i, id, ids[order[i]])
		}
	}
	return nil
}

func (r *storeReplay) layerMetrics(sum *traceSummary, out map[string]float64) {
	out["memdb.put_ns"] = sum.meanNs(layerMemdb, "put")
	out["memdb.get_ns"] = sum.meanNs(layerMemdb, "get")
	out["memdb.range_ns"] = sum.meanNs(layerMemdb, "range")
	out["memdb.delete_ns"] = sum.meanNs(layerMemdb, "delete")
	for _, e := range []string{"sharded-hash", "skiplist", "btree"} {
		out["memdb."+e+".ms_per_iter"] = sum.perRootNs(layerBench, "engine:"+e) / 1e6
	}
	out["graphdb.commit_us"] = sum.meanNs(layerGraphdb, "commit") / 1e3
	out["graphdb.match_us"] = sum.meanNs(layerGraphdb, "match") / 1e3
	out["graphdb.aggregate_us"] = sum.meanNs(layerGraphdb, "aggregate") / 1e3
	out["graphdb.shortest_path_us"] = sum.meanNs(layerGraphdb, "shortest_path") / 1e3
	out["graphdb.top_degree_us"] = sum.meanNs(layerGraphdb, "top_degree") / 1e3
}
