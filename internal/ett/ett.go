// Package ett implements batch-parallel Euler-tour trees (Tseng, Dhulipala,
// Blelloch, ALENEX 2019): a forest of n vertices under batches of links,
// cuts, connectivity and representative queries, with per-component
// augmented counters (vertex count, level-i tree-edge count, level-i
// non-tree-edge count) and the fetch/push-down primitives of the paper's
// Appendix 9.
//
// Each tree's Euler tour is a sequence holding one loop element per vertex
// and two arc elements per tree edge; the sequence lives in an augmented
// treap (internal/treap). Queries are embarrassingly parallel (read-only
// root walks). Batch mutations obtain parallelism by grouping operations by
// tour: cuts on distinct trees run concurrently, links are applied as
// sequential O(lg n) splices within each merge chain.
//
// # Read-only query contract
//
// Rep, Connected, Size, RepSize, RepTree, RepNonTree, Counts, CompTree,
// CompNonTree, FetchTreeSlots, FetchNonTreeSlots, Vertices, BatchConnected
// and BatchFindRep never create loop elements (they read f.verts directly
// rather than through vert) and bottom out in internal/treap's read-only
// walks, so any number of goroutines may run them concurrently with each
// other — just not concurrently with a mutation (Link, Cut, the batch
// variants, AddCounts, SetCounts). HasEdge is also safe concurrently (the
// arc index is mutex-sharded). The contract is enforced under -race by
// TestForestConcurrentReadOnlyQueries.
package ett

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/treap"
)

// Forest is a batch-dynamic forest over vertices [0, n). A loop element
// carries its vertex id as treap Data and contributes Size 1; an arc
// element contributes Size 0, and its Data is never read.
//
// Vertex loop elements are created lazily on first mutation touching the
// vertex: a connectivity structure keeps lg n forests over the same vertex
// set and most vertices never participate below the top level, so eager
// allocation would waste O(n lg n) nodes. A vertex with no element is a
// singleton whose representative is reported as nil (see Rep). For the
// same reason an element is dropped again once it is a singleton tour with
// zero counters, which is exactly what a vertex without one reports.
//
//conn:readonly-queries
type Forest struct {
	n     int
	verts []*treap.Node // vertex loop elements; nil until first touch
	arcs  [arcShards]arcShard
	edges int // tree edge count
}

// arcShards shards the directed-arc index so that links touching disjoint
// tours (e.g. tree pushes of vertex-disjoint components) can proceed in
// parallel, contending only on short shard-local critical sections.
const arcShards = 64

type arcShard struct {
	mu sync.Mutex
	m  map[uint64]*treap.Node
}

// New creates a forest of n singleton vertices.
func New(n int) *Forest {
	f := &Forest{n: n, verts: make([]*treap.Node, n)}
	for i := range f.arcs {
		f.arcs[i].m = make(map[uint64]*treap.Node, 4)
	}
	return f
}

func (f *Forest) shard(k uint64) *arcShard {
	return &f.arcs[parallel.Hash64(k)&(arcShards-1)]
}

func (f *Forest) arcPut(k uint64, nd *treap.Node) {
	s := f.shard(k)
	s.mu.Lock()
	s.m[k] = nd
	s.mu.Unlock()
}

func (f *Forest) arcGet(k uint64) *treap.Node {
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

// vert returns u's loop element, creating it on first touch. Mutating paths
// only; concurrent callers must not share a vertex (batch operations group
// by vertex or by tour, which guarantees this).
func (f *Forest) vert(u graph.Vertex) *treap.Node {
	nd := f.verts[u]
	if nd == nil {
		nd = treap.NewNode(treap.Value{Size: 1}, u)
		f.verts[u] = nd
	}
	return nd
}

// N returns the number of vertices.
//
//conn:readonly
func (f *Forest) N() int { return f.n }

func arcKey(u, v graph.Vertex) uint64 {
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// Rep returns the representative of u's component: the treap root. It is
// equal for two vertices iff they are connected, and is invalidated by any
// link or cut touching the component. A vertex with no loop element (never
// touched at this level, or released as a zero-counter singleton) reports
// a nil representative — two nil reps do NOT imply connectivity; use
// Connected for queries. Read-only:
// safe for concurrent callers under the package's query contract.
//
//conn:readonly
func (f *Forest) Rep(u graph.Vertex) *treap.Node {
	nd := f.verts[u]
	if nd == nil {
		return nil
	}
	return treap.Root(nd)
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
	if ru == nil || rv == nil {
		return false
	}
	return ru == rv
}

// Size returns the number of vertices in u's component.
//
//conn:readonly
func (f *Forest) Size(u graph.Vertex) int64 {
	nd := f.verts[u]
	if nd == nil {
		return 1
	}
	return int64(treap.Agg(nd).Size)
}

// RepSize returns the vertex count of the component with representative r.
//
//conn:readonly
func (f *Forest) RepSize(r *treap.Node) int64 { return int64(treap.Agg(r).Size) }

// RepNonTree returns the total non-tree-edge endpoint count of the component
// with representative r.
//
//conn:readonly
func (f *Forest) RepNonTree(r *treap.Node) int64 { return int64(treap.Agg(r).NonTree) }

// RepTree returns the total level-i tree-edge endpoint count of the
// component with representative r.
//
//conn:readonly
func (f *Forest) RepTree(r *treap.Node) int64 { return int64(treap.Agg(r).Tree) }

// HasEdge reports whether tree edge (u,v) is present.
func (f *Forest) HasEdge(u, v graph.Vertex) bool {
	return f.arcGet(arcKey(u, v)) != nil
}

// NumEdges returns the number of tree edges in the forest. Not synchronized
// with in-flight batch mutations.
//
//conn:readonly
func (f *Forest) NumEdges() int { return f.edges }

// reroot rotates u's tour so that u's loop element is first, returning the
// new root.
func (f *Forest) reroot(u graph.Vertex) *treap.Node {
	x := f.vert(u)
	a, b := treap.SplitBefore(x)
	return treap.Join(b, a)
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
	au := treap.NewNode(treap.Value{}, u)
	av := treap.NewNode(treap.Value{}, v)
	f.arcPut(arcKey(u, v), au)
	f.arcPut(arcKey(v, u), av)
	treap.Join(treap.Join(tu, au), treap.Join(tv, av))
}

// Cut removes tree edge (u, v); panics if absent.
func (f *Forest) Cut(u, v graph.Vertex) {
	au, av := f.takeArcs(u, v)
	cutArcs(au, av)
	f.release(u)
	f.release(v)
}

// release drops u's loop element if it is a singleton tour with zero
// counters. The node is left to the collector, not the pool: callers may
// still hold it as a representative, and a recycled node would alias it.
func (f *Forest) release(u graph.Vertex) {
	if nd := f.verts[u]; nd != nil && treap.Agg(nd) == (treap.Value{Cnt: 1, Size: 1}) {
		f.verts[u] = nil
	}
}

// takeArcs removes the two directed arc elements of edge (u,v) from the
// sharded arc index and returns them. The batch path still takes all arcs
// before fanning out the treap surgery so that grouping sees a consistent
// view.
func (f *Forest) takeArcs(u, v graph.Vertex) (au, av *treap.Node) {
	au = f.arcGet(arcKey(u, v))
	av = f.arcGet(arcKey(v, u))
	if au == nil || av == nil {
		panic(fmt.Sprintf("ett: Cut(%d,%d) of absent edge", u, v))
	}
	f.arcDel(arcKey(u, v))
	f.arcDel(arcKey(v, u))
	f.edges--
	return au, av
}

// cutArcs performs the tour surgery removing the two arc elements and
// recycles them into the treap node pool.
func cutArcs(au, av *treap.Node) {
	defer treap.Free(au)
	defer treap.Free(av)
	i1 := treap.Index(au)
	i2 := treap.Index(av)
	first := au
	if i1 > i2 {
		first = av
		i1, i2 = i2, i1
	}
	root := treap.Root(first)
	pre, rest := treap.SplitAt(root, i1)
	mid, suf := treap.SplitAt(rest, i2-i1+1)
	// mid = first ++ inner ++ second; strip the two arc elements, leaving
	// inner as the detached subtree's tour. mid is a root, so its length
	// is its own aggregate.
	_, mid = treap.SplitAt(mid, 1)
	treap.SplitAt(mid, treap.Len(mid)-1)
	treap.Join(pre, suf)
}

// AddCounts adjusts vertex u's augmented tree/non-tree edge counters (the
// number of level-i incident edges, where i is the level of this forest).
func (f *Forest) AddCounts(u graph.Vertex, dTree, dNonTree int64) {
	treap.AddVal(f.vert(u), treap.Value{Tree: int32(dTree), NonTree: int32(dNonTree)})
	f.release(u)
}

// SetCounts overwrites u's augmented counters.
func (f *Forest) SetCounts(u graph.Vertex, tree, nonTree int64) {
	nd := f.vert(u)
	treap.SetVal(nd, treap.Value{Size: nd.Val().Size, Tree: int32(tree), NonTree: int32(nonTree)})
	f.release(u)
}

// Counts returns u's own (not component) counters.
// Counts returns u's element counters (level-i tree / non-tree endpoint
// counts).
//
//conn:readonly
func (f *Forest) Counts(u graph.Vertex) (tree, nonTree int64) {
	nd := f.verts[u]
	if nd == nil {
		return 0, 0
	}
	v := nd.Val()
	return int64(v.Tree), int64(v.NonTree)
}

// CompNonTree returns the total non-tree-edge endpoint count in u's
// component (each intra-component edge is counted at both endpoints).
//
//conn:readonly
func (f *Forest) CompNonTree(u graph.Vertex) int64 {
	nd := f.verts[u]
	if nd == nil {
		return 0
	}
	return int64(treap.Agg(nd).NonTree)
}

// CompTree returns the total level-i tree-edge endpoint count in u's
// component.
//
//conn:readonly
func (f *Forest) CompTree(u graph.Vertex) int64 {
	nd := f.verts[u]
	if nd == nil {
		return 0
	}
	return int64(treap.Agg(nd).Tree)
}

// VertexSlot is one vertex holding cnt > 0 incident edges of the requested
// kind, in tour order.
type VertexSlot struct {
	V   graph.Vertex
	Cnt int64
}

func collect(rep *treap.Node, limit int64, proj func(treap.Value) int64) []VertexSlot {
	if rep == nil || limit <= 0 {
		return nil
	}
	var nodes []*treap.Node
	treap.Collect(rep, limit, proj, &nodes)
	out := make([]VertexSlot, 0, len(nodes))
	for _, nd := range nodes {
		if v := nd.Val(); v.Size == 1 {
			out = append(out, VertexSlot{V: nd.Data, Cnt: proj(v)})
		}
	}
	return out
}

// FetchNonTreeSlots returns, in tour order, vertices of the component with
// representative rep carrying non-tree edges, until at least limit edge
// endpoints are covered (or the component is exhausted). O(result + lg n).
//
//conn:readonly
func (f *Forest) FetchNonTreeSlots(rep *treap.Node, limit int64) []VertexSlot {
	return collect(rep, limit, func(v treap.Value) int64 { return int64(v.NonTree) })
}

// FetchTreeSlots is FetchNonTreeSlots for level-i tree-edge counters.
//
//conn:readonly
func (f *Forest) FetchTreeSlots(rep *treap.Node, limit int64) []VertexSlot {
	return collect(rep, limit, func(v treap.Value) int64 { return int64(v.Tree) })
}

// Vertices returns all vertices of the component with representative rep, in
// tour order. O(component size).
//
//conn:readonly
func (f *Forest) Vertices(rep *treap.Node) []graph.Vertex {
	var out []graph.Vertex
	treap.Walk(rep, func(n *treap.Node) {
		if n.Val().Size == 1 {
			out = append(out, n.Data)
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
func (f *Forest) BatchFindRep(vs []graph.Vertex) []*treap.Node {
	out := make([]*treap.Node, len(vs))
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
// is sharded, so concurrent registrations do not contend structurally.
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
	// Take all arc nodes out of the index sequentially (map writes), then
	// group the treap surgery by current tour root: all arcs of one tree
	// share a root, and cutting never moves nodes between distinct
	// original trees, so the groups are closed under the mutations they
	// perform and can run concurrently.
	aus := make([]*treap.Node, len(es))
	avs := make([]*treap.Node, len(es))
	for i, e := range es {
		aus[i], avs[i] = f.takeArcs(e.U, e.V)
	}
	keys := make([]uint64, len(es))
	parallel.For(len(es), 256, func(i int) {
		keys[i] = treap.Root(aus[i]).ID()
	})
	groups := parallel.GroupByParallel(keys)
	parallel.For(len(groups), 8, func(gi int) {
		for _, idx := range groups[gi].Indices {
			cutArcs(aus[idx], avs[idx])
		}
	})
	for _, e := range es {
		f.release(e.U)
		f.release(e.V)
	}
}
