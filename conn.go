// Package conn is a parallel batch-dynamic graph connectivity library — a Go
// implementation of "Parallel Batch-Dynamic Graph Connectivity" (Acar,
// Anderson, Blelloch, Dhulipala; SPAA 2019).
//
// A Graph over n vertices supports batches of edge insertions, edge
// deletions, and connectivity queries:
//
//	g := conn.New(1 << 20)
//	g.InsertEdges([]conn.Edge{{0, 1}, {1, 2}})
//	ok := g.Connected(0, 2)             // true
//	g.DeleteEdges([]conn.Edge{{1, 2}})
//	ans := g.ConnectedBatch([]conn.Edge{{0, 2}, {0, 1}}) // false, true
//
// Guarantees (Theorem 1 of the paper): across a workload whose deletion
// batches average Δ edges, updates cost O(lg n · lg(1+n/Δ)) expected
// amortized work per edge; a batch of k queries costs O(k lg(1+n/k))
// expected work and O(lg n) depth; deletion batches run in O(lg^3 n) depth.
// Internally the structure keeps ceil(lg n) nested spanning forests in
// batch-parallel Euler-tour trees; see internal/core for the algorithms and
// DESIGN.md for the system inventory.
//
// Graph is single-caller for updates: mutating methods must not be called
// concurrently with anything else. Query methods (Connected,
// ConnectedBatch, Components, ComponentSize, ComponentID,
// ComponentVertices, ComponentLabels, NumComponents, HasEdge, NumEdges) are
// read-only and may run concurrently with each other as long as no update
// is in flight — see the read-only query contract in internal/core. To
// serve operations from many goroutines, wrap the graph in a Batcher, which
// coalesces concurrent single operations into the large batches the cost
// bounds above reward and adds two query consistency tiers:
//
//	b := conn.NewBatcher(g)
//	b.Insert(0, 1)      // safe from any goroutine
//	b.Connected(0, 1)   // linearized: joins the epoch pipeline
//	b.ReadRecent(0, 1)  // committed: two loads of the published snapshot
package conn

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// Edge is an undirected edge between two vertex ids in [0, n). Orientation
// is irrelevant: {U, V} and {V, U} denote the same edge. It is an alias for
// the shared internal edge type, so public batches flow through the engine
// and shard layers without conversion.
type Edge = graph.Edge

// Algorithm selects the deletion search strategy.
type Algorithm = core.Algorithm

const (
	// Interleaved is Algorithm 5 of the paper (default): O(lg^3 n)-depth
	// deletions and the improved work bound.
	Interleaved = core.SearchInterleaved
	// Simple is Algorithm 4: the first, O(lg^4 n)-depth variant. Exposed
	// for benchmarking the paper's ablation.
	Simple = core.SearchSimple
)

// Graph is a dynamic undirected graph with batch-parallel connectivity.
// Methods must not be called concurrently with one another; each batch call
// is internally parallel. For concurrent callers, see Batcher.
type Graph struct {
	c *core.Conn
}

// Option configures a Graph.
type Option func(*options)

type options struct {
	alg Algorithm
}

// WithAlgorithm selects the deletion search algorithm (default Interleaved).
func WithAlgorithm(a Algorithm) Option {
	return func(o *options) { o.alg = a }
}

// New creates an empty graph on n vertices (ids 0..n-1). Panics if n <= 0.
func New(n int, opts ...Option) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("conn: New(%d): vertex count must be positive", n))
	}
	o := options{alg: Interleaved}
	for _, f := range opts {
		f(&o)
	}
	return &Graph{c: core.New(n, core.WithAlgorithm(o.alg))}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.c.N() }

// NumEdges returns the number of edges currently present.
func (g *Graph) NumEdges() int { return g.c.NumEdges() }

// HasEdge reports whether the edge {u, v} is present.
func (g *Graph) HasEdge(u, v int32) bool { return g.c.HasEdge(u, v) }

// EdgeInfo reports whether {u, v} is present and, if present, whether it is
// currently a spanning-forest (tree) edge, in one lookup; deleting a
// non-tree edge never changes connectivity.
func (g *Graph) EdgeInfo(u, v int32) (present, tree bool) { return g.c.EdgeInfo(u, v) }

// InsertEdges adds a batch of edges in parallel. Self-loops, duplicate
// batch entries and already-present edges are ignored. Returns the number
// of edges actually added.
func (g *Graph) InsertEdges(es []Edge) int {
	return g.c.BatchInsert(es)
}

// DeleteEdges removes a batch of edges in parallel; absent edges are
// ignored. Returns the number of edges actually removed.
func (g *Graph) DeleteEdges(es []Edge) int {
	return g.c.BatchDelete(es)
}

// Connected reports whether u and v are in the same connected component.
func (g *Graph) Connected(u, v int32) bool { return g.c.Connected(u, v) }

// ConnectedBatch answers k connectivity queries in parallel; result i
// corresponds to query pair i.
func (g *Graph) ConnectedBatch(qs []Edge) []bool {
	return g.c.BatchConnected(qs)
}

// Components returns a dense component labelling: lbl[u] == lbl[v] iff u and
// v are connected. O(n) plus a representative walk per vertex.
func (g *Graph) Components() []int32 { return g.c.Components() }

// NumComponents returns the number of connected components (isolated
// vertices count as components).
func (g *Graph) NumComponents() int { return g.c.NumComponents() }

// ComponentSize returns the number of vertices in u's connected component
// (at least 1). O(lg n) expected.
func (g *Graph) ComponentSize(u int32) int64 { return g.c.ComponentSize(u) }

// ComponentID returns a hashable component identifier: equal for two
// vertices iff they are connected, unique per component, invalidated by any
// update touching the component. O(lg n) expected.
func (g *Graph) ComponentID(u int32) uint64 { return g.c.ComponentID(u) }

// ComponentVertices returns the vertices of u's connected component
// (including u), in Euler-tour order. O(component size).
func (g *Graph) ComponentVertices(u int32) []int32 { return g.c.ComponentVertices(u) }

// ComponentLabels fills dst (length N) with the canonical min-vertex
// labelling: dst[u] is the smallest vertex id in u's component, so
// dst[u] == dst[v] iff connected. Unlike Components' dense numbering, a
// component keeps its label across updates that do not change its
// membership. Together with ComponentID, ComponentSize and
// ComponentVertices this makes Graph an internal/snapshot.Source — the feed
// for Batcher's wait-free ReadRecent tier.
func (g *Graph) ComponentLabels(dst []int32) { g.c.ComponentLabels(dst) }

// Neighbors appends to dst the vertices currently adjacent to u (tree and
// non-tree edges). Each live edge contributes exactly one entry, so the
// result is duplicate-free; order is unspecified. O(degree(u)). The query
// layer's k-hop traversal bottoms out here.
func (g *Graph) Neighbors(u int32, dst []int32) []int32 { return g.c.Neighbors(u, dst) }

// TreeNeighbors appends to dst the vertices adjacent to u through
// spanning-forest edges — u's neighborhood in the forest SpanningForest
// enumerates. Walking it from any vertex reaches exactly that vertex's
// component; the query layer's tree-path extraction BFSes over it.
func (g *Graph) TreeNeighbors(u int32, dst []int32) []int32 { return g.c.TreeNeighbors(u, dst) }

// SpanningForest returns the edges of a spanning forest of the current
// graph (the structure's top-level forest). Useful for exporting a
// connectivity certificate; order is unspecified.
func (g *Graph) SpanningForest() []Edge { return g.c.SpanningForest() }

// NonTreeEdges returns the edges not in the structure's spanning forest;
// SpanningForest and NonTreeEdges together enumerate the complete live edge
// set. Used by durable checkpoints; order is unspecified.
func (g *Graph) NonTreeEdges() []Edge { return g.c.NonTreeEdges() }

// Stats exposes internal work counters (level decreases, replacement edges,
// search rounds); useful for experiments and tuning.
type Stats = core.Stats

// Stats returns accumulated internal counters.
func (g *Graph) Stats() Stats { return g.c.Stats() }

// CheckInvariants validates the complete internal level structure (the two
// HDT invariants, forest nesting, counter/list agreement, and connectivity
// versus a union-find oracle). Intended for tests; O(n lg n + m).
func (g *Graph) CheckInvariants() error { return g.c.CheckInvariants() }
