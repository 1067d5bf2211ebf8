// Package core implements the paper's primary contribution: a parallel
// batch-dynamic connectivity structure supporting batches of edge
// insertions, deletions and connectivity queries over an n-vertex graph.
//
// The structure maintains the HDT level hierarchy — forests F_1 ⊆ ... ⊆ F_L,
// L = ceil(lg n), components of G_i bounded by 2^i — with batch-parallel
// Euler-tour trees per level (internal/ett) and the Appendix-8 adjacency
// arrays (internal/adjlist). Batch insertion is Algorithm 2; batch deletion
// is Algorithm 3 with the level search selectable between Algorithm 4
// (ParallelLevelSearch, round-reset doubling) and Algorithm 5
// (InterleavedLevelSearch, a single geometric search size per level and
// deferred pushes — the version achieving the improved
// O(lg n · lg(1+n/Δ)) amortized work bound).
//
// # Shared level start
//
// Algorithms 4 and 5 begin each level alike, and levelStart runs those
// lines once for both: link the replacements found at lower levels into
// F_i, resolve the witnesses to distinct pieces and gate them by size
// (resolvePieces, which Algorithm 4 also runs after each round), keep the
// pieces that can meet and push their level-i tree edges down. Both
// searches test a candidate with replaces, and Algorithm 4 commits a round's
// replacements through linkForest, the helper BatchInsert uses to link a
// spanning forest of its new edges.
//
// # Lazy tree-edge pushes
//
// Both searches depart from the pseudocode in two places, both decided by
// meetingPieces. First, a searched component pushes its level-i tree edges
// down to level i-1 only if it holds a level-i non-tree edge (its root
// aggregate's non-tree count is nonzero). A component without one can
// neither find nor receive a replacement at level i, so it keeps its tree
// edges where they are and is not searched. Skipping only leaves F_{i-1}
// finer and only removes level decreases, so the invariants and the
// charging argument behind Theorem 1 stand; on sliding-window churn it
// removes most of a deletion's tree-edge pushes (TestTreePushBudget). DESIGN.md §2, "Level-search amortization",
// has the argument, together with the soundness guard of pushNonTree.
//
// # Meeting pieces
//
// Second, before pushing anything at level i, both searches group the
// pieces that the batch's deleted tree edges of level <= i join, one group
// per pre-batch F_i tree. A replacement joins two pieces of one
// group that both hold a level-i non-tree edge, so the active pieces of a
// group with fewer than two such pieces are neither pushed nor searched and
// go on to level i+1. In a group of exactly two such pieces, both active,
// only the smaller is pushed and searched, HDT's smaller-side rule: every
// replacement has an endpoint in it. Like the lazy pushes, this only
// removes level decreases (DESIGN.md §2, "Meeting pieces" and "The smaller
// of two").
//
// # Read-only query contract
//
// Connected, BatchConnected, ComponentID, ComponentSize,
// ComponentVertices, Components, ComponentLabels, NumComponents, N, Top and
// Stats are pure reads: they bottom out in internal/ett's (and so
// internal/treap's) read-only root walks and touch none of the structure's
// mutable state. Any number of goroutines may run them concurrently with
// each other, provided no mutation (BatchInsert, BatchDelete) is in flight.
// Queries run on the engine's dispatcher between epochs, not beside it, so
// the contract guards the parallel workers inside one batch operation
// (BatchConnected and the ETT batch lookups fan out over parallel.For), not
// concurrent readers of a live structure. HasEdge, EdgeInfo and NumEdges
// additionally read the edge map, a Go map, which any number of goroutines
// may read at once while nothing writes it. Enforced under -race by
// TestConnConcurrentReadOnlyQueries.
package core

import (
	"repro/internal/adjlist"
	"repro/internal/ett"
	"repro/internal/graph"
	"repro/internal/levelcheck"
	"repro/internal/parallel"
	"repro/internal/spanning"
)

// Algorithm selects the level-search strategy used by BatchDelete.
type Algorithm int

const (
	// SearchInterleaved is Algorithm 5 (default): one geometrically
	// growing search size per level, deferred tree insertion and deferred
	// push-downs. O(lg^3 n) depth.
	SearchInterleaved Algorithm = iota
	// SearchSimple is Algorithm 4: the doubling search restarts every
	// round. O(lg^4 n) depth; kept for the paper's ablation.
	SearchSimple
)

// Stats counts work-proxy events, used by tests and the experiment harness.
type Stats struct {
	Inserts       int64 // edges actually inserted
	Deletes       int64 // edges actually deleted
	InsertBatches int64
	DeleteBatches int64
	Replaced      int64 // replacement edges promoted to tree edges
	Pushdowns     int64 // non-tree edge level decreases
	TreePushes    int64 // tree edge level decreases
	EdgesExamined int64 // non-tree edges inspected as candidates
	Rounds        int64 // level-search rounds
	Phases        int64 // doubling phases (Algorithm 4 inner iterations)
	LevelSearches int64 // ParallelLevelSearch / InterleavedLevelSearch calls
}

// Conn is the parallel batch-dynamic connectivity structure.
//
// The edge dictionary ED is a Go map from canonical edge key to a slot in
// the record arena. The paper assumes a parallel dictionary here; every
// batch already passes through graph.Dedup's sequential map first, so a
// sequential map costs no depth that Dedup does not already cost.
//
//conn:readonly-queries
type Conn struct {
	n     int
	top   int32
	f     []*ett.Forest
	adj   *adjlist.Store
	edges map[uint64]int32 // canonical edge key -> arena slot
	arena []*adjlist.Rec   // live records; nil entries are free slots
	freed []int32          // free arena slots, reused last freed first
	alg   Algorithm
	stats Stats
}

// Option configures a Conn.
type Option func(*Conn)

// WithAlgorithm selects the deletion level-search algorithm.
func WithAlgorithm(a Algorithm) Option {
	return func(c *Conn) { c.alg = a }
}

// New creates an empty graph over n vertices.
func New(n int, opts ...Option) *Conn {
	l := graph.Levels(n)
	c := &Conn{
		n:     n,
		top:   int32(l),
		f:     make([]*ett.Forest, l+1),
		adj:   adjlist.New(n, l+1),
		edges: make(map[uint64]int32),
		alg:   SearchInterleaved,
	}
	for i := 1; i <= l; i++ {
		c.f[i] = ett.New(n)
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// N returns the vertex count.
//
//conn:readonly
func (c *Conn) N() int { return c.n }

// Top returns the number of levels L.
//
//conn:readonly
func (c *Conn) Top() int { return int(c.top) }

// NumEdges returns the number of edges currently present.
//
//conn:readonly
func (c *Conn) NumEdges() int { return len(c.edges) }

// recFor returns the live record for a canonical edge key, or nil.
//
//conn:readonly
func (c *Conn) recFor(key uint64) *adjlist.Rec {
	if idx, ok := c.edges[key]; ok {
		return c.arena[idx]
	}
	return nil
}

// addRecs stores new records in arena slots, the last freed slot first, and
// registers each under its canonical key.
func (c *Conn) addRecs(recs []*adjlist.Rec) {
	for _, r := range recs {
		var idx int32
		if k := len(c.freed); k > 0 {
			idx = c.freed[k-1]
			c.freed = c.freed[:k-1]
		} else {
			idx = int32(len(c.arena))
			c.arena = append(c.arena, nil)
		}
		c.arena[idx] = r
		c.edges[r.E.Key()] = idx
	}
}

// takeRecs removes the given edges, returning the records that were present
// in batch order and freeing their arena slots.
func (c *Conn) takeRecs(es []graph.Edge) []*adjlist.Rec {
	var out []*adjlist.Rec
	for _, e := range es {
		k := e.Key()
		idx, ok := c.edges[k]
		if !ok {
			continue
		}
		out = append(out, c.arena[idx])
		c.arena[idx] = nil
		c.freed = append(c.freed, idx)
		delete(c.edges, k)
	}
	return out
}

// liveRecs returns all live edge records (test/checker support).
func (c *Conn) liveRecs() []*adjlist.Rec {
	return parallel.Filter(c.arena, func(r *adjlist.Rec) bool { return r != nil })
}

// Stats returns accumulated counters.
//
//conn:readonly
func (c *Conn) Stats() Stats { return c.stats }

// HasEdge reports whether (u, v) is present.
//
//conn:readonly
func (c *Conn) HasEdge(u, v graph.Vertex) bool {
	return c.recFor(graph.Edge{U: u, V: v}.Key()) != nil
}

// EdgeInfo reports whether (u, v) is present and, if present, whether it is
// currently a spanning-forest (tree) edge — one dictionary lookup. Deleting
// a non-tree edge never changes connectivity; the snapshot publisher uses
// this to skip epochs that cannot move any component label. Read-only.
//
//conn:readonly
func (c *Conn) EdgeInfo(u, v graph.Vertex) (present, tree bool) {
	r := c.recFor(graph.Edge{U: u, V: v}.Key())
	if r == nil {
		return false, false
	}
	return true, r.IsTree
}

// Connected reports whether u and v are connected (single query).
//
//conn:readonly
func (c *Conn) Connected(u, v graph.Vertex) bool {
	return c.f[c.top].Connected(u, v)
}

// BatchConnected answers k connectivity queries in parallel (Algorithm 1).
// Implemented bound: k independent root walks in the top-level Euler-tour
// forest (ett.Forest.BatchConnected), O(k lg n) expected work and O(lg n)
// expected depth. The paper's O(k lg(1+n/k)) work needs the batch to share
// the walks' common upper paths; that is the target, not what runs here.
//
//conn:readonly
func (c *Conn) BatchConnected(qs []graph.Edge) []bool {
	return c.f[c.top].BatchConnected(qs)
}

// Components returns a dense labelling: lbl[u] == lbl[v] iff connected. A
// component's label is the rank of its minimum vertex among the components'
// minima.
//
//conn:readonly
func (c *Conn) Components() []int32 {
	lbl := make([]int32, c.n)
	c.ComponentLabels(lbl)
	next := int32(0)
	for u, m := range lbl {
		if m == int32(u) {
			lbl[u] = next
			next++
		} else {
			lbl[u] = lbl[m] // m < u is already relabelled
		}
	}
	return lbl
}

// NumComponents returns the number of connected components.
//
//conn:readonly
func (c *Conn) NumComponents() int {
	lbl := make([]int32, c.n)
	c.ComponentLabels(lbl)
	k := 0
	for u, m := range lbl {
		if m == int32(u) {
			k++
		}
	}
	return k
}

// ComponentSize returns the number of vertices in u's connected component.
//
//conn:readonly
func (c *Conn) ComponentSize(u graph.Vertex) int64 {
	return c.f[c.top].Size(u)
}

// ComponentID returns a hashable component identifier for u: equal for two
// vertices iff they are connected, unique per component, invalidated by any
// update touching the component: the top-forest representative's slot, or a
// synthetic id for untouched singletons.
//
//conn:readonly
func (c *Conn) ComponentID(u graph.Vertex) uint64 {
	return repKey(c.f[c.top], u)
}

// ComponentVertices returns the vertices of u's connected component, in tour
// order (a vertex never linked at the top level is a singleton). O(component
// size). Read-only.
//
//conn:readonly
func (c *Conn) ComponentVertices(u graph.Vertex) []graph.Vertex {
	r := c.f[c.top].Rep(u)
	if r == 0 {
		return []graph.Vertex{u}
	}
	return c.f[c.top].Vertices(r)
}

// ComponentLabels fills dst (length n) with the min-vertex labelling:
// dst[u] is the smallest vertex id in u's component, so dst[u] == dst[v]
// iff u and v are connected. Unlike Components' dense 0..k-1 numbering,
// these labels are canonical — a component keeps its label across updates
// that do not change its membership — which is what lets the snapshot read
// path (internal/snapshot) repair a labelling incrementally. Read-only.
//
//conn:readonly
func (c *Conn) ComponentLabels(dst []int32) {
	if len(dst) != c.n {
		panic("core: ComponentLabels: dst length != n")
	}
	byRep := make(map[int32]int32)
	for u := 0; u < c.n; u++ {
		r := c.f[c.top].Rep(graph.Vertex(u))
		if r == 0 {
			dst[u] = int32(u)
			continue
		}
		// Ascending scan: the first vertex seen for a representative is the
		// component's minimum.
		m, ok := byRep[r]
		if !ok {
			m = int32(u)
			byRep[r] = m
		}
		dst[u] = m
	}
}

// Neighbors appends to dst the vertices currently adjacent to u (tree and
// non-tree edges, all levels). Each live edge contributes exactly one entry,
// so the result is duplicate-free. O(degree(u)); the query layer's k-hop
// traversal bottoms out here. Read-only.
//
//conn:readonly
func (c *Conn) Neighbors(u graph.Vertex, dst []graph.Vertex) []graph.Vertex {
	return c.adj.Neighbors(u, false, dst)
}

// TreeNeighbors appends to dst the vertices adjacent to u through
// spanning-forest (tree) edges, across all levels — u's neighborhood in
// F_top. Walking TreeNeighbors from any vertex reaches exactly its
// component, by a path of tree edges; the query layer's tree-path
// extraction runs a BFS over it. Read-only.
//
//conn:readonly
func (c *Conn) TreeNeighbors(u graph.Vertex, dst []graph.Vertex) []graph.Vertex {
	return c.adj.Neighbors(u, true, dst)
}

// SpanningForest returns the edges of the current spanning forest (the tree
// edges of F_top). The slice is freshly allocated; order is unspecified.
//
//conn:readonly
func (c *Conn) SpanningForest() []graph.Edge {
	recs := parallel.Filter(c.arena, func(r *adjlist.Rec) bool { return r != nil && r.IsTree })
	return parallel.Map(recs, func(r *adjlist.Rec) graph.Edge { return r.E })
}

// NonTreeEdges returns the live edges that are not part of the spanning
// forest; SpanningForest ∪ NonTreeEdges is the complete live edge set (the
// feed for durable checkpoints). The slice is freshly allocated; order is
// unspecified. Read-only.
//
//conn:readonly
func (c *Conn) NonTreeEdges() []graph.Edge {
	recs := parallel.Filter(c.arena, func(r *adjlist.Rec) bool { return r != nil && !r.IsTree })
	return parallel.Map(recs, func(r *adjlist.Rec) graph.Edge { return r.E })
}

// LevelHistogram returns, for each level 1..Top, the number of live edges
// currently assigned to it (index 0 unused). Diagnostic for the experiment
// harness: edges sink as deletions search for replacements.
//
//conn:readonly
func (c *Conn) LevelHistogram() []int64 {
	h := make([]int64, c.top+1)
	for _, r := range c.arena {
		if r != nil {
			h[r.Level]++
		}
	}
	return h
}

// repKey maps a vertex's representative at forest f to a hashable id: the
// representative's slot, or for an untouched (singleton) vertex a unique
// synthetic key with the top bit set.
func repKey(f *ett.Forest, v graph.Vertex) uint64 {
	if r := f.Rep(v); r != 0 {
		return uint64(r)
	}
	return 1<<63 | uint64(uint32(v))
}

// applyDeltas repairs the augmented counters of the level forests after a
// batch adjacency mutation, one counter update per delta. Every caller runs
// outside any parallel loop, so the updates run in order on one goroutine.
func (c *Conn) applyDeltas(deltas []adjlist.Delta) {
	for _, d := range deltas {
		c.f[d.Level].AddCounts(d.V, d.Tree, d.NonTree)
	}
}

// BatchInsert adds a batch of edges (Algorithm 2). Self-loops, duplicates
// within the batch, and edges already present are ignored. Returns the
// number of edges actually inserted. Implemented bound: O(k lg n) expected
// work — one O(lg n) root walk per endpoint to contract the batch, and the
// chosen spanning-forest edges linked one at a time (ett.Forest.BatchLink),
// each O(lg n) expected, so the link phase is sequential with O(k lg n)
// depth. The paper's O(k lg(1+n/k)) work with a batch-parallel link is the
// target, not what runs here.
func (c *Conn) BatchInsert(es []graph.Edge) int {
	defer c.reclaim()
	// Dedup returns a fresh slice, so the absent edges are packed in place.
	es = graph.Dedup(es)
	fresh := es[:0]
	for _, e := range es {
		if _, ok := c.edges[e.Key()]; !ok {
			fresh = append(fresh, e)
		}
	}
	es = fresh
	if len(es) == 0 {
		return 0
	}
	c.stats.InsertBatches++
	c.stats.Inserts += int64(len(es))
	// All new edges enter at the top level as non-tree edges.
	recs := make([]*adjlist.Rec, len(es))
	parallel.For(len(es), 1024, func(i int) {
		recs[i] = &adjlist.Rec{E: es[i], Level: c.top}
	})
	c.addRecs(recs)
	deltas := c.adj.BatchInsert(recs)
	c.applyDeltas(deltas)
	// A spanning forest of the batch over the contracted components joins
	// components; its edges become tree edges.
	c.linkForest(c.top, recs)
	return len(es)
}

// linkForest picks a spanning forest of recs over the pieces of F_lvl,
// promotes its records to tree edges at level lvl and links them into F_lvl,
// returning their edges. BatchInsert runs it at the top level over the new
// edges, Algorithm 4 at level i over one round's replacements.
func (c *Conn) linkForest(lvl int32, recs []*adjlist.Rec) []graph.Edge {
	f := c.f[lvl]
	us := make([]uint64, len(recs))
	vs := make([]uint64, len(recs))
	parallel.For(len(recs), 256, func(k int) {
		us[k] = repKey(f, recs[k].E.U)
		vs[k] = repKey(f, recs[k].E.V)
	})
	tree := parallel.Pack(recs, spanning.Forest(us, vs))
	if len(tree) == 0 {
		return nil
	}
	c.promote(tree, lvl)
	edges := parallel.Map(tree, func(r *adjlist.Rec) graph.Edge { return r.E })
	f.BatchLink(edges)
	return edges
}

// reclaim recycles the loop-element slots the forests released during a
// batch operation. Called when the operation returns: until then the level
// searches may hold a released element as a representative.
func (c *Conn) reclaim() {
	for _, f := range c.f[1:] {
		f.Reclaim()
	}
}

// promote converts the given non-tree records into tree records at the given
// level, updating adjacency lists and augmented counters. It does not touch
// the forests; the caller links the edges.
func (c *Conn) promote(recs []*adjlist.Rec, lvl int32) {
	d1 := c.adj.BatchDelete(recs)
	parallel.For(len(recs), 1024, func(i int) {
		recs[i].IsTree = true
		recs[i].Level = lvl
	})
	d2 := c.adj.BatchInsert(recs)
	c.applyDeltas(append(d1, d2...))
}

// CheckInvariants validates the complete level structure; for tests.
func (c *Conn) CheckInvariants() error {
	return levelcheck.Check(c.n, int(c.top), c.f, c.adj, c.liveRecs())
}
