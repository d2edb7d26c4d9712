package graphdb

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracle is a plain edge-list model of a graph: the committed nodes and
// every committed relationship in commit order.
type oracle struct {
	labels map[NodeID]string
	props  map[NodeID]int
	edges  []oEdge
	maxID  NodeID // highest ID ever handed out, committed or not
}

type oEdge struct {
	from, to NodeID
	typ      string
}

type oNode struct {
	id    NodeID
	label string
	prop  int
}

// pending is a write transaction together with the effects it will have on
// the oracle if it commits.
type pending struct {
	tx    *Tx
	nodes []oNode
	edges []oEdge
}

var (
	diffLabels = []string{"A", "B", "C"}
	diffTypes  = []string{"X", "Y"}
)

// buildDifferential builds a seeded random graph through interleaved
// transactions: some commit after a transaction that began later, some
// roll back and some fail to commit, leaving ID holes, and some relate the
// same pair several times.
func buildDifferential(t *testing.T, seed int64) (*Graph, *oracle) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New()
	o := &oracle{labels: map[NodeID]string{}, props: map[NodeID]int{}}
	var live []NodeID

	stage := func() *pending {
		p := &pending{tx: g.WriteTx()}
		for i := 0; i < 2+rng.Intn(6); i++ {
			n := oNode{label: diffLabels[rng.Intn(len(diffLabels))], prop: rng.Intn(3)}
			id, err := p.tx.CreateNode(n.label, map[string]any{"p": n.prop})
			if err != nil {
				t.Fatal(err)
			}
			n.id = id
			o.maxID = max(o.maxID, id)
			p.nodes = append(p.nodes, n)
		}
		cands := slices.Clone(live)
		for _, n := range p.nodes {
			cands = append(cands, n.id)
		}
		for i := 0; i < 4+rng.Intn(12); i++ {
			e := oEdge{cands[rng.Intn(len(cands))], cands[rng.Intn(len(cands))], diffTypes[rng.Intn(len(diffTypes))]}
			copies := 1
			if rng.Intn(4) == 0 {
				copies = 2 + rng.Intn(2) // parallel duplicates
			}
			for c := 0; c < copies; c++ {
				if c > 0 && rng.Intn(2) == 0 {
					e.typ = diffTypes[rng.Intn(len(diffTypes))] // same pair, maybe another type
				}
				if err := p.tx.Relate(e.from, e.to, e.typ, nil); err != nil {
					t.Fatal(err)
				}
				p.edges = append(p.edges, e)
			}
		}
		return p
	}
	commit := func(p *pending) {
		if err := p.tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, n := range p.nodes {
			o.labels[n.id], o.props[n.id] = n.label, n.prop
			live = append(live, n.id)
		}
		o.edges = append(o.edges, p.edges...)
	}

	for round := 0; round < 8; round++ {
		a := stage()
		b := stage()
		switch round % 4 {
		case 0: // a staged its IDs first but commits second
			commit(b)
			commit(a)
		case 1:
			commit(a)
			commit(b)
		case 2: // a rolls back: its IDs stay holes
			if err := a.tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			commit(b)
		case 3: // a fails at commit: its IDs stay holes
			if err := a.tx.Relate(a.nodes[0].id, o.maxID+1000, "X", nil); err != nil {
				t.Fatal(err)
			}
			if err := a.tx.Commit(); !errors.Is(err, ErrNodeMissing) {
				t.Fatalf("commit with a missing endpoint: err = %v", err)
			}
			commit(b)
		}
	}
	return g, o
}

func (o *oracle) match(fromLabel, relType, toLabel string) []MatchRow {
	var out []MatchRow
	for _, e := range o.edges {
		if (fromLabel == "" || o.labels[e.from] == fromLabel) &&
			(relType == "" || e.typ == relType) &&
			(toLabel == "" || o.labels[e.to] == toLabel) {
			out = append(out, MatchRow{From: e.from, To: e.to, RelType: e.typ})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

func (o *oracle) neighbors(id NodeID, relType string, dir Direction) []NodeID {
	var out []NodeID
	if dir == Outgoing || dir == Both {
		for _, e := range o.edges {
			if e.from == id && (relType == "" || e.typ == relType) {
				out = append(out, e.to)
			}
		}
	}
	if dir == Incoming || dir == Both {
		for _, e := range o.edges {
			if e.to == id && (relType == "" || e.typ == relType) {
				out = append(out, e.from)
			}
		}
	}
	return out
}

func (o *oracle) bfs(src, dst NodeID, relType string) int {
	if src == dst {
		return 0
	}
	dist := map[NodeID]int{src: 0}
	for queue := []NodeID{src}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, e := range o.edges {
			if e.from != u || relType != "" && e.typ != relType {
				continue
			}
			if _, seen := dist[e.to]; !seen {
				dist[e.to] = dist[u] + 1
				if e.to == dst {
					return dist[e.to]
				}
				queue = append(queue, e.to)
			}
		}
	}
	return -1
}

func (o *oracle) byLabel(label string) []NodeID {
	var out []NodeID
	for id, l := range o.labels {
		if l == label {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

func (o *oracle) topDegree(label string, k int) []NodeID {
	ids := o.byLabel(label)
	deg := func(id NodeID) int { return len(o.neighbors(id, "", Both)) }
	sort.SliceStable(ids, func(i, j int) bool { return deg(ids[i]) > deg(ids[j]) })
	return ids[:min(k, len(ids))]
}

func sameIDs(a, b []NodeID) bool { return len(a) == len(b) && (len(a) == 0 || slices.Equal(a, b)) }

// TestGraphDifferential checks every read query against the edge-list
// oracle on seeded random graphs, over every ID from below zero to beyond
// the last one handed out.
func TestGraphDifferential(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			g, o := buildDifferential(t, seed)
			if got := g.NodeCount(); got != len(o.labels) {
				t.Errorf("NodeCount = %d, want %d", got, len(o.labels))
			}
			if got, want := g.Commits, int64(12); got != want {
				t.Errorf("Commits = %d, want %d", got, want)
			}

			probe := []NodeID{-1 << 40, -2, -1}
			for id := NodeID(0); id <= o.maxID+3; id++ {
				probe = append(probe, id)
			}
			probe = append(probe, 1<<40)
			for _, id := range probe {
				label, live := o.labels[id]
				n, ok := g.GetNode(id)
				if ok != live || ok && (n.ID != id || n.Label != label || n.Props["p"] != o.props[id]) {
					t.Errorf("GetNode(%d) = %+v, %v; want label %q, live %v", id, n, ok, label, live)
				}
				for _, dir := range []Direction{Outgoing, Incoming, Both} {
					if got, want := g.Degree(id, dir), len(o.neighbors(id, "", dir)); got != want {
						t.Errorf("Degree(%d, %d) = %d, want %d", id, dir, got, want)
					}
					for _, typ := range append([]string{"", "Z"}, diffTypes...) {
						if got, want := g.Neighbors(id, typ, dir), o.neighbors(id, typ, dir); !sameIDs(got, want) {
							t.Errorf("Neighbors(%d, %q, %d) = %v, want %v", id, typ, dir, got, want)
						}
					}
				}
			}

			labels := append([]string{"", "Nope"}, diffLabels...)
			for _, label := range labels {
				if got, want := g.ByLabel(label), o.byLabel(label); !sameIDs(got, want) {
					t.Errorf("ByLabel(%q) = %v, want %v", label, got, want)
				}
				for _, k := range []int{0, 3, 1000} {
					if got, want := g.TopDegree(label, k), o.topDegree(label, k); !sameIDs(got, want) {
						t.Errorf("TopDegree(%q, %d) = %v, want %v", label, k, got, want)
					}
				}
				agg := g.AggregateByProp(label, "p")
				want := map[any]int{}
				for _, id := range o.byLabel(label) {
					want[o.props[id]]++
				}
				if fmt.Sprint(agg) != fmt.Sprint(want) {
					t.Errorf("AggregateByProp(%q) = %v, want %v", label, agg, want)
				}
				for _, typ := range append([]string{"", "Z"}, diffTypes...) {
					for _, to := range labels {
						got, want := g.Match(label, typ, to), o.match(label, typ, to)
						if len(got) != len(want) || len(got) > 0 && !slices.Equal(got, want) {
							t.Errorf("Match(%q, %q, %q) = %v, want %v", label, typ, to, got, want)
						}
					}
				}
			}

			for _, src := range probe {
				for _, dst := range probe {
					for _, typ := range []string{"", "X"} {
						if got, want := g.ShortestPath(src, dst, typ), o.bfs(src, dst, typ); got != want {
							t.Errorf("ShortestPath(%d, %d, %q) = %d, want %d", src, dst, typ, got, want)
						}
					}
				}
			}
		})
	}
}

// TestMatchAllocatesOnce pins Match to a single allocation: the result,
// sized up front from the per-type relationship count.
func TestMatchAllocatesOnce(t *testing.T) {
	g, _ := buildAnalytics(t, 60, 6, 12)
	for _, q := range [][3]string{{"User", "FOLLOWS", "User"}, {"", "", ""}, {"User", "POSTED", "Post"}} {
		var rows []MatchRow
		allocs := testing.AllocsPerRun(20, func() { rows = g.Match(q[0], q[1], q[2]) })
		if allocs != 1 {
			t.Errorf("Match%v: %v allocations per call, want 1", q, allocs)
		}
		if len(rows) == 0 {
			t.Errorf("Match%v returned no rows", q)
		}
	}
}
