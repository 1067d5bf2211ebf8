// Package ett implements batch-parallel Euler-tour trees (Tseng, Dhulipala,
// Blelloch, ALENEX 2019): a forest of n vertices under batches of links,
// cuts, connectivity and representative queries, with per-component
// augmented counters (vertex count, level-i tree-edge count, level-i
// non-tree-edge count) and the fetch/push-down primitives of the paper's
// Appendix 9.
//
// Each tree's Euler tour is a sequence holding one loop element per vertex
// and two arc elements per tree edge; the sequence lives in an augmented
// treap (internal/treap) whose nodes are int32 slots of the forest's own
// slab, so a forest holds no pointer graph: the vertex table and the arc
// index store slots, and a representative is a slot. Queries are
// embarrassingly parallel (read-only root walks over the slab's dense
// parent array). Batch mutations obtain parallelism by grouping operations
// by tour: cuts on distinct trees run concurrently, links are applied as
// sequential O(lg n) splices within each merge chain.
//
// # Read-only query contract
//
// Rep, Connected, Size, RepSize, RepTree, RepNonTree, Counts, CompTree,
// CompNonTree, CheckTour, FetchTreeSlots, FetchNonTreeSlots, Vertices,
// BatchConnected and BatchFindRep never create loop elements (they read
// f.verts directly rather than through vert) and bottom out in the slab's
// //conn:readonly walks, which read slots and write none, so any number of
// goroutines may run them concurrently with each other — just not
// concurrently with a mutation (Link, Cut, the batch variants, AddCounts,
// SetCounts, Reclaim). HasEdge is also safe concurrently (the arc index is
// mutex-sharded). The contract is enforced under -race by
// TestForestConcurrentReadOnlyQueries.
package ett

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/treap"
)

// Forest is a batch-dynamic forest over vertices [0, n). Its elements
// live in one treap.Slab and are addressed by int32 slots (0 is nil). A
// loop element carries its vertex id as its treap Data and contributes
// Size 1; an arc element contributes Size 0, and its Data is never read.
//
// Vertex loop elements are created lazily on first mutation touching the
// vertex: a connectivity structure keeps lg n forests over the same vertex
// set and most vertices never participate below the top level, so eager
// allocation would waste O(n lg n) nodes. A vertex with no element is a
// singleton whose representative is reported as 0 (see Rep). For the
// same reason an element is dropped again once it is a singleton tour with
// zero counters, which is exactly what a vertex without one reports.
//
// A dropped (retired) loop element keeps its slot until Reclaim: callers
// may still hold it as a representative, and a slot recycled for another
// element would alias it. verts holds the retired slot negated, so the
// vertex takes the same slot back if it is touched again first. Live and
// retired slots together stay under 3n: one per vertex and two per tree
// edge.
//
//conn:readonly-queries
type Forest struct {
	n     int
	s     *treap.Slab
	verts []int32 // vertex loop elements; 0 until first touch, <0 retired
	arcs  [arcShards]arcShard
	edges int // tree edge count

	mu      sync.Mutex
	retired []int32 // slots dropped by release, recycled by Reclaim
}

// arcShards shards the directed-arc index so that links touching disjoint
// tours (e.g. tree pushes of vertex-disjoint components) can proceed in
// parallel, contending only on short shard-local critical sections.
const arcShards = 64

type arcShard struct {
	mu sync.Mutex
	m  map[uint64]int32
}

// New creates a forest of n singleton vertices.
func New(n int) *Forest {
	f := &Forest{n: n, s: treap.NewSlab(3 * n), verts: make([]int32, n)}
	for i := range f.arcs {
		f.arcs[i].m = make(map[uint64]int32, 4)
	}
	return f
}

func (f *Forest) shard(k uint64) *arcShard {
	return &f.arcs[parallel.Hash64(k)&(arcShards-1)]
}

func (f *Forest) arcPut(k uint64, nd int32) {
	s := f.shard(k)
	s.mu.Lock()
	s.m[k] = nd
	s.mu.Unlock()
}

func (f *Forest) arcGet(k uint64) int32 {
	s := f.shard(k)
	s.mu.Lock()
	nd := s.m[k]
	s.mu.Unlock()
	return nd
}

func (f *Forest) arcDel(k uint64) {
	s := f.shard(k)
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}

// vert returns u's loop element, creating it on first touch or taking its
// retired slot back. Mutating paths only; concurrent callers must not
// share a vertex (batch operations group by vertex or by tour, which
// guarantees this).
func (f *Forest) vert(u graph.Vertex) int32 {
	x := f.verts[u]
	switch {
	case x < 0:
		// A retired slot is still the zero-counter singleton it was.
		x = -x
	case x == 0:
		x = f.s.NewNode(treap.Value{Size: 1}, u)
	default:
		return x
	}
	f.verts[u] = x
	return x
}

// loop returns u's live loop element, or 0. Read-only.
//
//conn:readonly
func (f *Forest) loop(u graph.Vertex) int32 {
	if x := f.verts[u]; x > 0 {
		return x
	}
	return 0
}

// N returns the number of vertices.
//
//conn:readonly
func (f *Forest) N() int { return f.n }

func arcKey(u, v graph.Vertex) uint64 {
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// Rep returns the representative of u's component: the slot of its tour's
// treap root. It is equal for two vertices iff they are connected, and is
// invalidated by any link or cut touching the component. A vertex with no
// loop element (never touched at this level, or released as a zero-counter
// singleton) reports 0 — two 0 reps do NOT imply connectivity; use
// Connected for queries. Read-only: safe for concurrent callers under the
// package's query contract.
//
//conn:readonly
func (f *Forest) Rep(u graph.Vertex) int32 {
	x := f.loop(u)
	if x == 0 {
		return 0
	}
	return f.s.Root(x)
}

// Connected reports whether u and v lie in the same tree. Read-only: safe
// for concurrent callers under the package's query contract.
//
//conn:readonly
func (f *Forest) Connected(u, v graph.Vertex) bool {
	if u == v {
		return true
	}
	ru, rv := f.Rep(u), f.Rep(v)
	return ru != 0 && ru == rv
}

// Size returns the number of vertices in u's component.
//
//conn:readonly
func (f *Forest) Size(u graph.Vertex) int64 {
	x := f.loop(u)
	if x == 0 {
		return 1
	}
	return int64(f.s.Agg(x).Size)
}

// RepSize returns the vertex count of the component with representative r.
//
//conn:readonly
func (f *Forest) RepSize(r int32) int64 { return int64(f.s.Agg(r).Size) }

// RepNonTree returns the total non-tree-edge endpoint count of the component
// with representative r.
//
//conn:readonly
func (f *Forest) RepNonTree(r int32) int64 { return int64(f.s.Agg(r).NonTree) }

// RepTree returns the total level-i tree-edge endpoint count of the
// component with representative r.
//
//conn:readonly
func (f *Forest) RepTree(r int32) int64 { return int64(f.s.Agg(r).Tree) }

// CheckTour verifies the treap invariants (heap order, parent links,
// aggregates) of the tour with representative r; it returns the first
// violation found, or an empty string.
//
//conn:readonly
func (f *Forest) CheckTour(r int32) string { return f.s.CheckInvariants(r) }

// HasEdge reports whether tree edge (u,v) is present.
func (f *Forest) HasEdge(u, v graph.Vertex) bool {
	return f.arcGet(arcKey(u, v)) != 0
}

// NumEdges returns the number of tree edges in the forest. Not synchronized
// with in-flight batch mutations.
//
//conn:readonly
func (f *Forest) NumEdges() int { return f.edges }

// reroot rotates u's tour so that u's loop element is first, returning the
// new root.
func (f *Forest) reroot(u graph.Vertex) int32 {
	a, b := f.s.SplitBefore(f.vert(u))
	return f.s.Join(b, a)
}

// Link adds tree edge (u, v). The endpoints must lie in different trees;
// Link panics otherwise (the connectivity algorithm guarantees acyclicity,
// so a violation is a bug upstream).
func (f *Forest) Link(u, v graph.Vertex) {
	if f.Connected(u, v) {
		panic(fmt.Sprintf("ett: Link(%d,%d) would create a cycle", u, v))
	}
	f.splice(u, v)
	f.edges++
}

// splice joins the tours of u and v with two new arc elements:
// [u ...] (u,v) [v ...] (v,u). It does not count the edge.
func (f *Forest) splice(u, v graph.Vertex) {
	tu := f.reroot(u)
	tv := f.reroot(v)
	au := f.s.NewNode(treap.Value{}, u)
	av := f.s.NewNode(treap.Value{}, v)
	f.arcPut(arcKey(u, v), au)
	f.arcPut(arcKey(v, u), av)
	f.s.Join(f.s.Join(tu, au), f.s.Join(tv, av))
}

// Cut removes tree edge (u, v); panics if absent.
func (f *Forest) Cut(u, v graph.Vertex) {
	au, av := f.takeArcs(u, v)
	f.cutArcs(au, av)
	f.release(u)
	f.release(v)
}

// release retires u's loop element if it is a singleton tour with zero
// counters. O(1): such an element has no links and own value {Size: 1}.
// The slot is not freed here (see Forest); Reclaim frees it.
func (f *Forest) release(u graph.Vertex) {
	x := f.verts[u]
	if x <= 0 || !f.s.Isolated(x) || f.s.Val(x) != (treap.Value{Cnt: 1, Size: 1}) {
		return
	}
	f.verts[u] = -x
	f.mu.Lock()
	f.retired = append(f.retired, x)
	f.mu.Unlock()
}

// Reclaim frees the slots of the loop elements released since the last
// call, except those whose vertex has taken its slot back. The owner calls
// it between batch operations, when it holds no representative from before
// the call; until then a retired slot stays reserved for its vertex.
func (f *Forest) Reclaim() {
	for _, x := range f.retired {
		if u := f.s.Data(x); f.verts[u] == -x {
			f.verts[u] = 0
			f.s.Free(x)
		}
	}
	f.retired = f.retired[:0]
}

// takeArcs removes the two directed arc elements of edge (u,v) from the
// sharded arc index and returns them. The batch path still takes all arcs
// before fanning out the treap surgery so that grouping sees a consistent
// view.
func (f *Forest) takeArcs(u, v graph.Vertex) (au, av int32) {
	au = f.arcGet(arcKey(u, v))
	av = f.arcGet(arcKey(v, u))
	if au == 0 || av == 0 {
		panic(fmt.Sprintf("ett: Cut(%d,%d) of absent edge", u, v))
	}
	f.arcDel(arcKey(u, v))
	f.arcDel(arcKey(v, u))
	f.edges--
	return au, av
}

// cutArcs performs the tour surgery removing the two arc elements and
// frees their slots. The tour is pre (u,v) inner (v,u) suf or the same
// with the arcs swapped; inner becomes the detached subtree's tour. Only
// bottom-up splits run, and a root walk tells the two orders apart. The
// slots can be freed at once: the cut invalidates every representative of
// their tour, so nobody may still hold one.
func (f *Forest) cutArcs(au, av int32) {
	s := f.s
	pre, rest := s.SplitBefore(au)
	if s.Root(av) == rest { // pre au inner av suf
		_, suf := s.SplitAfter(av)
		s.SplitAfter(au)
		s.SplitBefore(av)
		s.Join(pre, suf)
	} else { // pre = p av inner, rest = au suf
		p, _ := s.SplitBefore(av)
		s.SplitAfter(av)
		_, suf := s.SplitAfter(au)
		s.Join(p, suf)
	}
	s.Free(au)
	s.Free(av)
}

// AddCounts adjusts vertex u's augmented tree/non-tree edge counters (the
// number of level-i incident edges, where i is the level of this forest).
func (f *Forest) AddCounts(u graph.Vertex, dTree, dNonTree int64) {
	f.s.AddVal(f.vert(u), treap.Value{Tree: int32(dTree), NonTree: int32(dNonTree)})
	f.release(u)
}

// SetCounts overwrites u's augmented counters.
func (f *Forest) SetCounts(u graph.Vertex, tree, nonTree int64) {
	f.s.SetVal(f.vert(u), treap.Value{Size: 1, Tree: int32(tree), NonTree: int32(nonTree)})
	f.release(u)
}

// Counts returns u's element counters (level-i tree / non-tree endpoint
// counts).
//
//conn:readonly
func (f *Forest) Counts(u graph.Vertex) (tree, nonTree int64) {
	x := f.loop(u)
	if x == 0 {
		return 0, 0
	}
	v := f.s.Val(x)
	return int64(v.Tree), int64(v.NonTree)
}

// CompNonTree returns the total non-tree-edge endpoint count in u's
// component (each intra-component edge is counted at both endpoints).
//
//conn:readonly
func (f *Forest) CompNonTree(u graph.Vertex) int64 {
	x := f.loop(u)
	if x == 0 {
		return 0
	}
	return int64(f.s.Agg(x).NonTree)
}

// CompTree returns the total level-i tree-edge endpoint count in u's
// component.
//
//conn:readonly
func (f *Forest) CompTree(u graph.Vertex) int64 {
	x := f.loop(u)
	if x == 0 {
		return 0
	}
	return int64(f.s.Agg(x).Tree)
}

// VertexSlot is one vertex holding cnt > 0 incident edges of the requested
// kind, in tour order.
type VertexSlot struct {
	V   graph.Vertex
	Cnt int64
}

//conn:readonly
func (f *Forest) collect(rep int32, limit int64, proj func(treap.Value) int64) []VertexSlot {
	if rep == 0 || limit <= 0 {
		return nil
	}
	var nodes []int32
	f.s.Collect(rep, limit, proj, &nodes)
	out := make([]VertexSlot, 0, len(nodes))
	for _, x := range nodes {
		if v := f.s.Val(x); v.Size == 1 {
			out = append(out, VertexSlot{V: f.s.Data(x), Cnt: proj(v)})
		}
	}
	return out
}

// FetchNonTreeSlots returns, in tour order, vertices of the component with
// representative rep carrying non-tree edges, until at least limit edge
// endpoints are covered (or the component is exhausted). O(result + lg n).
//
//conn:readonly
func (f *Forest) FetchNonTreeSlots(rep int32, limit int64) []VertexSlot {
	return f.collect(rep, limit, func(v treap.Value) int64 { return int64(v.NonTree) })
}

// FetchTreeSlots is FetchNonTreeSlots for level-i tree-edge counters.
//
//conn:readonly
func (f *Forest) FetchTreeSlots(rep int32, limit int64) []VertexSlot {
	return f.collect(rep, limit, func(v treap.Value) int64 { return int64(v.Tree) })
}

// Vertices returns all vertices of the component with representative rep, in
// tour order. O(component size).
//
//conn:readonly
func (f *Forest) Vertices(rep int32) []graph.Vertex {
	var out []graph.Vertex
	f.s.Walk(rep, func(x int32) {
		if f.s.Val(x).Size == 1 {
			out = append(out, f.s.Data(x))
		}
	})
	return out
}

// BatchConnected answers k connectivity queries in parallel.
//
//conn:readonly
func (f *Forest) BatchConnected(qs []graph.Edge) []bool {
	out := make([]bool, len(qs))
	parallel.For(len(qs), 64, func(i int) {
		out[i] = f.Connected(qs[i].U, qs[i].V)
	})
	return out
}

// BatchFindRep returns the representative of each queried vertex, in
// parallel.
//
//conn:readonly
func (f *Forest) BatchFindRep(vs []graph.Vertex) []int32 {
	out := make([]int32, len(vs))
	parallel.For(len(vs), 64, func(i int) {
		out[i] = f.Rep(vs[i])
	})
	return out
}

// BatchLink inserts the given tree edges. The batch must be acyclic with
// respect to the current forest (panics otherwise). Links are applied
// sequentially — merging tours is an inherently chained operation in this
// representation — but each costs only O(lg n) expected.
func (f *Forest) BatchLink(es []graph.Edge) {
	for _, e := range es {
		f.Link(e.U, e.V)
	}
}

// BatchLinkDisjoint inserts groups of tree edges where the caller guarantees
// that distinct groups touch vertex-disjoint sets of tours (e.g. the level
// search pushing each component's tree edges down: components are
// vertex-disjoint and so are their sub-forests one level below). Groups run
// in parallel; edges within a group are spliced sequentially. The arc index
// is sharded and the slab allocates under its own lock, so concurrent
// registrations do not contend structurally.
func (f *Forest) BatchLinkDisjoint(groups [][]graph.Edge) {
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total == 0 {
		return
	}
	parallel.For(len(groups), 1, func(gi int) {
		for _, e := range groups[gi] {
			if f.Connected(e.U, e.V) {
				panic(fmt.Sprintf("ett: BatchLinkDisjoint(%d,%d) would create a cycle", e.U, e.V))
			}
			f.splice(e.U, e.V)
		}
	})
	// Tallied outside the parallel loop: f.edges is not atomic.
	f.edges += total
}

// BatchCut removes the given tree edges. Cuts on distinct trees run in
// parallel; cuts sharing a tree are applied sequentially within its group.
func (f *Forest) BatchCut(es []graph.Edge) {
	if len(es) == 0 {
		return
	}
	if len(es) == 1 {
		f.Cut(es[0].U, es[0].V)
		return
	}
	// Take all arc slots out of the index sequentially (map writes), then
	// group the treap surgery by current tour root: all arcs of one tree
	// share a root, and cutting never moves elements between distinct
	// original trees, so the groups are closed under the mutations they
	// perform and can run concurrently.
	aus := make([]int32, len(es))
	avs := make([]int32, len(es))
	for i, e := range es {
		aus[i], avs[i] = f.takeArcs(e.U, e.V)
	}
	keys := make([]uint64, len(es))
	parallel.For(len(es), 256, func(i int) {
		keys[i] = uint64(f.s.Root(aus[i]))
	})
	order, start := parallel.GroupBy(keys)
	parallel.For(len(start)-1, 8, func(g int) {
		for _, idx := range order[start[g]:start[g+1]] {
			f.cutArcs(aus[idx], avs[idx])
		}
	})
	for _, e := range es {
		f.release(e.U)
		f.release(e.V)
	}
}
