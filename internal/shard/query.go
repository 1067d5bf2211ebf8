// Sharded query composition: the coordinator answers the query layer's
// structural questions over the union of its engines' edge sets.
//
// Label-shaped queries (members / size / aggregate) scatter-gather: every
// engine's wait-free published labelling is collected and contracted into a
// global min-vertex labelling by a union-find over vertices — engine i's
// label lbl_i[v] asserts "v is connected to vertex lbl_i[v]", and the union
// of those assertions across engines is exactly the union graph's
// connectivity. Traversals (k-hop / tree path) are boundary-aware instead:
// the BFS neighbor enumerator unions the adjacency of the vertex's owning
// shard engine with the boundary engine's (the only two pipelines that can
// hold edges incident to it), so the frontier crosses partition borders
// transparently.
package shard

import (
	"repro/internal/core"
	"repro/internal/query"
)

// Query executes one structural query against the combined graph.
// Linearized mode flushes every engine first — each engine publishes its
// labelling inside epoch execution, before acknowledging, so the post-flush
// gather reflects every operation staged before the call. Recent mode reads
// whatever each engine last published: per-engine bounded staleness, no
// locks, no dispatcher. Result.Seq is always zero — a sharded namespace has
// k+1 WAL streams, not one durable position — matching the no-fence
// convention of its other read paths.
func (c *Coordinator) Query(req query.Request) (query.Result, error) {
	if c.closed.Load() {
		return query.Result{}, ErrClosed
	}
	if err := query.Validate(req, int32(c.n)); err != nil {
		return query.Result{}, err
	}
	if req.Linearized {
		c.Flush()
	}
	switch req.Kind {
	case query.KindKHop:
		verts := query.KHop(c.neighbors(false), int32(c.n), req.U, req.K)
		return query.Result{Found: true, Verts: verts, Size: uint64(len(verts))}, nil
	case query.KindPath:
		path, found := query.TreePath(c.neighbors(true), int32(c.n), req.U, req.V)
		return query.Result{Found: found, Verts: path, Size: uint64(len(path))}, nil
	}
	lbl := c.composeLabels()
	res := query.Result{Found: true}
	switch req.Kind {
	case query.KindMembers:
		m := lbl[req.U]
		for v, l := range lbl {
			if l == m {
				res.Verts = append(res.Verts, int32(v))
			}
		}
		res.Size = uint64(len(res.Verts))
	case query.KindSize:
		m := lbl[req.U]
		for _, l := range lbl {
			if l == m {
				res.Size++
			}
		}
	case query.KindAggregate:
		res.Count, res.Hist = query.Aggregate(lbl)
	}
	return res, nil
}

// neighbors returns the boundary-aware neighbor enumerator: edges incident
// to v can only live in v's shard engine (both endpoints hash there) or the
// boundary engine, so those two adjacency walks — each under its engine's
// read lock — cover v's full neighborhood. treeOnly restricts
// to spanning-forest edges; the union of per-engine forests preserves the
// union graph's connectivity, which is what makes the composed tree path
// exact.
func (c *Coordinator) neighbors(treeOnly bool) func(v int32, dst []int32) []int32 {
	return func(v int32, dst []int32) []int32 {
		for _, i := range [2]int{Partition(v, c.k), c.k} {
			_ = c.engines[i].Read(func(cc *core.Conn) {
				if treeOnly {
					dst = cc.TreeNeighbors(v, dst)
				} else {
					dst = cc.Neighbors(v, dst)
				}
			})
		}
		return dst
	}
}

// composeLabels gathers every engine's published labelling and contracts
// them into one global min-vertex labelling: union(v, lbl_i[v]) for every
// engine i and vertex v, with union-by-minimum so each class's root IS its
// minimum vertex. O((k+1)·n·α).
func (c *Coordinator) composeLabels() []int32 {
	n := c.n
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = int32(v)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra < rb {
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	scratch := make([]int32, n)
	for _, e := range c.engines {
		e.Recent().CopyTo(scratch)
		for v := 0; v < n; v++ {
			if scratch[v] != int32(v) {
				union(int32(v), scratch[v])
			}
		}
	}
	out := make([]int32, n)
	for v := 0; v < n; v++ {
		out[v] = find(int32(v))
	}
	return out
}
