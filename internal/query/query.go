// Package query is the read-side query executor: it answers the structural
// questions the connectivity engine's state can already support but the
// Connected(u,v) predicate never surfaced — k-hop neighborhoods, component
// membership and size, tree paths over the spanning forest, and whole-graph
// aggregates (component count + size histogram).
//
// # Consistency tiers
//
// Every query runs in one of two modes, mirroring the engine's read tiers:
//
//   - Recent (default): label-shaped queries (members, size, aggregate) are
//     answered from the wait-free published snapshot (snapshot.Labels) — no
//     locks, no dispatcher, exactly the tier replicas serve read load from.
//   - Linearized: label-shaped queries first ride the dispatcher (Flush — a
//     full epoch barrier, so every operation staged before the query arrived
//     has committed and published), then read the snapshot as in recent
//     mode. The answer is ordered after all prior acknowledged writes.
//
// Structural traversals (k-hop, tree path) have no snapshot to walk, so in
// both modes they run against the live structure on the engine's
// dispatcher, between epochs (engine.Read): already ordered after every
// operation staged before them, they need no Flush.
//
// The returned Seq never exceeds the state the answer reflects — the same
// fencing contract ReadRecent's replica routing relies on. For a label-
// shaped query it is the engine's applied durable position sampled before
// the read; for a traversal it is read on the dispatcher with the walk, so
// it is exactly the position of the state walked.
package query

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// Kind selects the query. Values are wire-stable.
type Kind uint8

const (
	// KindKHop returns the vertices within K hops of U (U included),
	// ascending.
	KindKHop Kind = iota
	// KindMembers returns the vertices of U's component, ascending, plus
	// its size.
	KindMembers
	// KindSize returns only the size of U's component.
	KindSize
	// KindPath returns a path of spanning-forest edges from U to V, as the
	// vertex sequence U..V in path order; Found is false when U and V are
	// disconnected.
	KindPath
	// KindAggregate returns the component count and the size histogram:
	// Hist[i] counts components whose size s satisfies 2^i <= s < 2^(i+1).
	KindAggregate
)

// String names the kind for CLI output and errors.
func (k Kind) String() string {
	switch k {
	case KindKHop:
		return "khop"
	case KindMembers:
		return "members"
	case KindSize:
		return "size"
	case KindPath:
		return "path"
	case KindAggregate:
		return "aggregate"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Request is one query. U is the subject vertex (KHop/Members/Size/Path),
// V the path target, K the hop bound. Linearized selects the dispatcher-
// ordered tier for label-shaped kinds; traversals are always in it.
type Request struct {
	Kind       Kind
	Linearized bool
	U, V       int32
	K          uint32
}

// Result is the uniform answer shape: every kind fills Seq and the fields
// it defines and leaves the rest zero.
type Result struct {
	Seq   uint64
	Found bool
	Size  uint64
	Count uint64
	Verts []int32
	Hist  []uint64
}

// Engine is the executor's view of one engine: the wait-free snapshot
// tier, live-structure walks on the dispatcher, and the dispatcher
// barrier. *engine.Engine implements it.
type Engine interface {
	N() int
	Recent() *snapshot.Labels
	Read(f func(c *core.Conn)) error
	Flush()
	AppliedSeq() uint64
}

// Run executes one query against e. An out-of-range vertex or unknown kind
// is an error with nothing executed; remote front-ends map it to a bad-
// request status.
func Run(e Engine, req Request) (Result, error) {
	n := int32(e.N())
	if err := Validate(req, n); err != nil {
		return Result{}, err
	}
	if req.Kind == KindKHop || req.Kind == KindPath {
		return traverse(e, req)
	}
	if req.Linearized {
		e.Flush()
	}
	// Label-shaped queries read the published snapshot in both modes: the
	// flushed epoch published before Flush returned, so in linearized mode
	// it already reflects every write acknowledged before the query.
	seq := e.AppliedSeq()
	lbl := make([]int32, n)
	e.Recent().CopyTo(lbl)
	res := Result{Seq: seq, Found: true}
	switch req.Kind {
	case KindMembers:
		m := lbl[req.U]
		for v, l := range lbl {
			if l == m {
				res.Verts = append(res.Verts, int32(v))
			}
		}
		res.Size = uint64(len(res.Verts))
	case KindSize:
		m := lbl[req.U]
		for _, l := range lbl {
			if l == m {
				res.Size++
			}
		}
	case KindAggregate:
		res.Count, res.Hist = Aggregate(lbl)
	}
	return res, nil
}

// Validate checks a request against the vertex universe [0, n). Exported so
// the sharded coordinator and the server can reject before fan-out.
func Validate(req Request, n int32) error {
	switch req.Kind {
	case KindKHop, KindMembers, KindSize, KindPath, KindAggregate:
	default:
		return fmt.Errorf("query: unknown kind %d", uint8(req.Kind))
	}
	needU := req.Kind != KindAggregate
	if needU && (req.U < 0 || req.U >= n) {
		return fmt.Errorf("query: vertex %d out of range [0, %d)", req.U, n)
	}
	if req.Kind == KindPath && (req.V < 0 || req.V >= n) {
		return fmt.Errorf("query: vertex %d out of range [0, %d)", req.V, n)
	}
	return nil
}

// Aggregate computes the component count and log2 size histogram of a
// min-vertex labelling. Shared by both tiers and the sharded scatter-gather
// path (which composes a global labelling first).
func Aggregate(lbl []int32) (count uint64, hist []uint64) {
	sizes := make(map[int32]uint64, 64)
	for _, l := range lbl {
		sizes[l]++
	}
	var h [33]uint64
	maxB := 0
	for _, s := range sizes {
		b := bits.Len64(s) - 1 // floor(log2(s))
		h[b]++
		if b > maxB {
			maxB = b
		}
	}
	return uint64(len(sizes)), append([]uint64(nil), h[:maxB+1]...)
}

// traverse runs a k-hop or tree-path traversal over the live structure on
// the engine's dispatcher (the snapshot tier has labels, not adjacency),
// reading the applied seq there too, so it names exactly the state walked.
func traverse(e Engine, req Request) (Result, error) {
	var res Result
	err := e.Read(func(c *core.Conn) {
		if req.Kind == KindKHop {
			verts := KHop(c.Neighbors, int32(e.N()), req.U, req.K)
			res = Result{Found: true, Verts: verts, Size: uint64(len(verts))}
		} else {
			path, found := TreePath(c.TreeNeighbors, int32(e.N()), req.U, req.V)
			res = Result{Found: found, Verts: path, Size: uint64(len(path))}
		}
		res.Seq = e.AppliedSeq()
	})
	return res, err
}

// KHop runs BFS to depth k over any neighbor enumerator and returns the
// visited set ascending — the vertices within k hops of u, u included. The
// sharded coordinator's enumerator unions the neighbor lists of every
// engine owning the vertex, boundary engine included.
func KHop(neighbors func(int32, []int32) []int32, n, u int32, k uint32) []int32 {
	visited := make([]bool, n)
	visited[u] = true
	frontier := []int32{u}
	out := []int32{u}
	var scratch []int32
	for d := uint32(0); d < k && len(frontier) > 0; d++ {
		var next []int32
		for _, v := range frontier {
			scratch = neighbors(v, scratch[:0])
			for _, w := range scratch {
				if !visited[w] {
					visited[w] = true
					next = append(next, w)
					out = append(out, w)
				}
			}
		}
		frontier = next
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TreePath extracts a u→v path of spanning-forest edges: BFS from u toward
// v over any tree-neighbor enumerator, then parent-chain reconstruction of
// the vertex sequence u..v. The forest spans every component, so a path
// exists iff u and v are connected; the union of per-engine spanning
// forests preserves the union graph's connectivity, so the sharded
// coordinator's composed enumerator still finds a path exactly when one
// exists.
func TreePath(neighbors func(int32, []int32) []int32, n, u, v int32) ([]int32, bool) {
	if u == v {
		return []int32{u}, true
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[u] = u
	frontier := []int32{u}
	var scratch []int32
	for len(frontier) > 0 {
		var next []int32
		for _, x := range frontier {
			scratch = neighbors(x, scratch[:0])
			for _, w := range scratch {
				if parent[w] != -1 {
					continue
				}
				parent[w] = x
				if w == v {
					var path []int32
					for at := v; ; at = parent[at] {
						path = append(path, at)
						if at == u {
							break
						}
					}
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					return path, true
				}
				next = append(next, w)
			}
		}
		frontier = next
	}
	return nil, false
}
