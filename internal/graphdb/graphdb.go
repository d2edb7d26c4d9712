// Package graphdb implements a small in-memory property-graph database
// with transactions and a traversal/query layer, in the style of an
// embedded Neo4J — the substrate of the neo4j-analytics benchmark
// (Table 1: "query processing, transactions"). Nodes carry labels and
// properties; relationships are typed and directed. Write transactions
// buffer their mutations and apply them atomically at commit under the
// store lock; read transactions see a consistent snapshot for their whole
// duration.
//
// Nodes live in a dense table indexed by NodeID. IDs come from a monotonic
// counter, so a scan of the table visits nodes in ascending ID order; an ID
// whose transaction rolled back or failed to commit stays a nil slot.
package graphdb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"renaissance/internal/metrics"
)

// Errors returned by transaction operations.
var (
	ErrTxDone      = errors.New("graphdb: transaction already finished")
	ErrNodeMissing = errors.New("graphdb: node does not exist")
)

// NodeID identifies a node.
type NodeID int64

// Node is a labelled property vertex. Returned nodes are snapshots; mutate
// through a transaction.
type Node struct {
	ID     NodeID
	Label  string
	Props  map[string]any
	outRel []*rel
	inRel  []*rel
}

type rel struct {
	Type     string
	From, To NodeID
	Props    map[string]any
}

// Graph is the store.
type Graph struct {
	mu         sync.RWMutex
	nodes      []*Node // indexed by NodeID; nil for IDs never committed
	live       int     // non-nil slots in nodes
	rels       int     // committed relationships
	relsByType map[string]int
	nextID     NodeID
	// Commits counts committed write transactions.
	Commits int64
}

// New creates an empty graph.
func New() *Graph {
	metrics.IncObject()
	return &Graph{relsByType: make(map[string]int)}
}

// node returns the committed node with the ID, or nil.
func (g *Graph) node(id NodeID) *Node {
	if uint64(id) >= uint64(len(g.nodes)) {
		return nil
	}
	return g.nodes[id]
}

// WriteTx starts a write transaction. Mutations are buffered and applied
// atomically on Commit; Rollback discards them.
func (g *Graph) WriteTx() *Tx {
	metrics.IncObject()
	return &Tx{g: g, write: true}
}

// Tx is a transaction handle. Operations are validated and applied
// together at Commit under the store lock, so a transaction either takes
// full effect or none.
type Tx struct {
	g      *Graph
	write  bool
	done   bool
	ops    []txOp
	staged map[NodeID]bool // nodes this tx will create
}

type txOp struct {
	validate func(*Graph) error
	apply    func(*Graph)
}

// exists reports whether the node is live in the graph or staged by this
// transaction (valid to reference from later operations in the same tx).
func (t *Tx) exists(g *Graph, id NodeID) bool {
	return t.staged[id] || g.node(id) != nil
}

// CreateNode stages a node creation and returns its future ID.
//
// IDs are assigned eagerly from the graph's counter so that staged
// relationships can reference staged nodes.
func (t *Tx) CreateNode(label string, props map[string]any) (NodeID, error) {
	if t.done {
		return 0, ErrTxDone
	}
	metrics.IncSynch()
	t.g.mu.Lock()
	t.g.nextID++
	id := t.g.nextID
	t.g.mu.Unlock()
	if t.staged == nil {
		t.staged = make(map[NodeID]bool)
	}
	t.staged[id] = true
	t.ops = append(t.ops, txOp{apply: func(g *Graph) {
		metrics.IncObject()
		if int(id) >= len(g.nodes) {
			g.nodes = slices.Grow(g.nodes, int(id)+1-len(g.nodes))[:id+1]
		}
		g.nodes[id] = &Node{ID: id, Label: label, Props: cloneProps(props)}
		g.live++
	}})
	return id, nil
}

// SetProp stages a property update on an existing or staged node.
func (t *Tx) SetProp(id NodeID, key string, value any) error {
	if t.done {
		return ErrTxDone
	}
	t.ops = append(t.ops, txOp{
		validate: func(g *Graph) error {
			if !t.exists(g, id) {
				return fmt.Errorf("%w: %d", ErrNodeMissing, id)
			}
			return nil
		},
		apply: func(g *Graph) {
			n := g.nodes[id]
			if n.Props == nil {
				n.Props = make(map[string]any)
			}
			n.Props[key] = value
		},
	})
	return nil
}

// Relate stages a directed relationship from -> to of the given type.
func (t *Tx) Relate(from, to NodeID, relType string, props map[string]any) error {
	if t.done {
		return ErrTxDone
	}
	t.ops = append(t.ops, txOp{
		validate: func(g *Graph) error {
			if !t.exists(g, from) {
				return fmt.Errorf("%w: %d", ErrNodeMissing, from)
			}
			if !t.exists(g, to) {
				return fmt.Errorf("%w: %d", ErrNodeMissing, to)
			}
			return nil
		},
		apply: func(g *Graph) {
			fn, tn := g.nodes[from], g.nodes[to]
			metrics.IncObject()
			r := &rel{Type: relType, From: from, To: to, Props: cloneProps(props)}
			fn.outRel = append(fn.outRel, r)
			tn.inRel = append(tn.inRel, r)
			g.rels++
			g.relsByType[relType]++
		},
	})
	return nil
}

// Commit applies the buffered operations atomically. If any operation
// fails, the whole transaction is rolled back and the error returned.
func (t *Tx) Commit() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	g := t.g
	metrics.IncSynch()
	g.mu.Lock()
	defer g.mu.Unlock()

	// Validate every operation before applying any, so a failing
	// transaction leaves the graph untouched.
	for _, op := range t.ops {
		if op.validate == nil {
			continue
		}
		if err := op.validate(g); err != nil {
			return err
		}
	}
	for _, op := range t.ops {
		op.apply(g)
	}
	g.Commits++
	return nil
}

// Rollback discards the staged operations.
func (t *Tx) Rollback() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	t.ops = nil
	return nil
}

func cloneProps(props map[string]any) map[string]any {
	if props == nil {
		return nil
	}
	metrics.IncObject()
	out := make(map[string]any, len(props))
	for k, v := range props {
		out[k] = v
	}
	return out
}

// --- Read API (consistent under the store's read lock) ---

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int {
	metrics.IncSynch()
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.live
}

// GetNode returns a snapshot of the node.
func (g *Graph) GetNode(id NodeID) (Node, bool) {
	metrics.IncSynch()
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := g.node(id)
	if n == nil {
		return Node{}, false
	}
	return Node{ID: n.ID, Label: n.Label, Props: cloneProps(n.Props)}, true
}

// ByLabel returns the IDs of all nodes with the label, ascending.
func (g *Graph) ByLabel(label string) []NodeID {
	metrics.IncSynch()
	g.mu.RLock()
	defer g.mu.RUnlock()
	metrics.IncArray()
	var out []NodeID
	for _, n := range g.nodes {
		if n != nil && n.Label == label {
			out = append(out, n.ID)
		}
	}
	return out
}

// Direction selects traversal orientation.
type Direction int

// Traversal directions.
const (
	Outgoing Direction = iota
	Incoming
	Both
)

// Neighbors returns the IDs reachable over one relationship of the given
// type (empty type matches all) in the given direction.
func (g *Graph) Neighbors(id NodeID, relType string, dir Direction) []NodeID {
	metrics.IncSynch()
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := g.node(id)
	if n == nil {
		return nil
	}
	metrics.IncArray()
	var out []NodeID
	if dir == Outgoing || dir == Both {
		for _, r := range n.outRel {
			if relType == "" || r.Type == relType {
				out = append(out, r.To)
			}
		}
	}
	if dir == Incoming || dir == Both {
		for _, r := range n.inRel {
			if relType == "" || r.Type == relType {
				out = append(out, r.From)
			}
		}
	}
	return out
}

// Degree returns the number of relationships of the node in the direction.
func (g *Graph) Degree(id NodeID, dir Direction) int {
	metrics.IncSynch()
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := g.node(id)
	if n == nil {
		return 0
	}
	switch dir {
	case Outgoing:
		return len(n.outRel)
	case Incoming:
		return len(n.inRel)
	default:
		return len(n.outRel) + len(n.inRel)
	}
}

// MatchRow is one result of a pattern match (a)-[r]->(b).
type MatchRow struct {
	From, To NodeID
	RelType  string
}

// Match returns every (from:fromLabel)-[:relType]->(to:toLabel) triple;
// empty strings are wildcards. Rows come in ascending (From, To) order;
// parallel relationships between the same pair keep their commit order.
func (g *Graph) Match(fromLabel, relType, toLabel string) []MatchRow {
	metrics.IncSynch()
	g.mu.RLock()
	defer g.mu.RUnlock()
	metrics.IncArray()
	size := g.rels
	if relType != "" {
		size = g.relsByType[relType]
	}
	out := make([]MatchRow, 0, size)
	for _, n := range g.nodes {
		if n == nil || fromLabel != "" && n.Label != fromLabel {
			continue
		}
		start := len(out)
		for _, r := range n.outRel {
			if relType != "" && r.Type != relType {
				continue
			}
			if toLabel != "" && g.nodes[r.To].Label != toLabel {
				continue
			}
			out = append(out, MatchRow{From: r.From, To: r.To, RelType: r.Type})
		}
		slices.SortStableFunc(out[start:], func(a, b MatchRow) int { return cmp.Compare(a.To, b.To) })
	}
	return out
}

// ShortestPath returns the hop count of the shortest directed path from
// src to dst following relType edges (empty = any), or -1 if unreachable.
func (g *Graph) ShortestPath(src, dst NodeID, relType string) int {
	if src == dst {
		return 0
	}
	metrics.IncSynch()
	g.mu.RLock()
	defer g.mu.RUnlock()
	metrics.IncObject()
	if g.node(src) == nil {
		return -1
	}
	visited := make([]bool, len(g.nodes))
	visited[src] = true
	frontier, next := []NodeID{src}, []NodeID(nil)
	for depth := 1; len(frontier) > 0; depth++ {
		for _, id := range frontier {
			for _, r := range g.nodes[id].outRel {
				if relType != "" && r.Type != relType {
					continue
				}
				if r.To == dst {
					return depth
				}
				if !visited[r.To] {
					visited[r.To] = true
					next = append(next, r.To)
				}
			}
		}
		frontier, next = next, frontier[:0]
	}
	return -1
}

// AggregateByProp groups nodes of a label by a property value and counts
// the group sizes — the analytical-query shape of neo4j-analytics.
func (g *Graph) AggregateByProp(label, prop string) map[any]int {
	metrics.IncSynch()
	g.mu.RLock()
	defer g.mu.RUnlock()
	metrics.IncObject()
	out := make(map[any]int)
	for _, n := range g.nodes {
		if n == nil || n.Label != label {
			continue
		}
		if v, ok := n.Props[prop]; ok {
			out[v]++
		}
	}
	return out
}

// TopDegree returns the k nodes of the label with the highest total
// degree, descending (ties by ascending ID).
func (g *Graph) TopDegree(label string, k int) []NodeID {
	type scored struct {
		id  NodeID
		deg int
	}
	metrics.IncSynch()
	g.mu.RLock()
	metrics.IncArray()
	all := make([]scored, 0, g.live)
	for _, n := range g.nodes {
		if n != nil && n.Label == label {
			all = append(all, scored{n.ID, len(n.outRel) + len(n.inRel)})
		}
	}
	g.mu.RUnlock()
	slices.SortFunc(all, func(a, b scored) int {
		if a.deg != b.deg {
			return cmp.Compare(b.deg, a.deg)
		}
		return cmp.Compare(a.id, b.id)
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].id
	}
	return out
}
