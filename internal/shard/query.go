// Sharded query composition: the coordinator answers the query layer's
// structural questions over the union of its engines' edge sets.
//
// Label-shaped queries (members / size / aggregate) read the composition
// index: every engine's wait-free published labelling contracted into a
// global min-vertex labelling by a union-find over vertices — engine i's
// label lbl_i[v] asserts "v is connected to vertex lbl_i[v]", and the union
// of those assertions across engines is exactly the union graph's
// connectivity. Traversals (k-hop / tree path) are boundary-aware instead:
// the BFS neighbor enumerator unions the adjacency of the vertex's owning
// shard engine with the boundary engine's (the only two pipelines that can
// hold edges incident to it), so the frontier crosses partition borders
// transparently. The BFS runs once, on one state per engine: readAll parks
// every engine's dispatcher at an epoch boundary for the walk.
package shard

import (
	"errors"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/query"
)

// Query executes one structural query against the combined graph.
// Traversals walk every engine's live structure at once (readAll), after
// every operation staged before the call, in both modes. For label-shaped
// kinds, linearized mode flushes every engine first — each engine
// publishes its labelling inside epoch execution, before acknowledging,
// and Flush advances the coordinator version, so the index composed next
// reflects every operation staged before the call. Recent mode reads the
// current composition index: every acknowledged mutation, no locks, no
// dispatcher. Result.Seq is always zero — a sharded namespace has k+1 WAL
// streams, not one durable position — matching the no-fence convention of
// its other read paths.
func (c *Coordinator) Query(req query.Request) (query.Result, error) {
	if c.closed.Load() {
		return query.Result{}, ErrClosed
	}
	if err := query.Validate(req, int32(c.n)); err != nil {
		return query.Result{}, err
	}
	if req.Kind == query.KindKHop || req.Kind == query.KindPath {
		var res query.Result
		err := c.readAll(func(cores []*core.Conn) {
			if req.Kind == query.KindKHop {
				verts := query.KHop(c.neighbors(cores, false), int32(c.n), req.U, req.K)
				res = query.Result{Found: true, Verts: verts, Size: uint64(len(verts))}
			} else {
				path, found := query.TreePath(c.neighbors(cores, true), int32(c.n), req.U, req.V)
				res = query.Result{Found: found, Verts: path, Size: uint64(len(path))}
			}
		})
		return res, err
	}
	if req.Linearized {
		c.Flush()
	}
	lbl := c.index().lbl
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

// readAll runs f with every engine's live structure, cores[i] being engine
// i's. Each engine's Read runs the next engine's from its dispatcher, in
// index order, so f runs while all k+1 dispatchers wait at an epoch
// boundary and sees one state per engine; the fixed order rules out a
// waiting cycle between concurrent traversals. A traversal that races Close
// returns ErrClosed rather than a partial answer.
func (c *Coordinator) readAll(f func(cores []*core.Conn)) error {
	cores := make([]*core.Conn, len(c.engines))
	var read func(i int) error
	read = func(i int) error {
		if i == len(cores) {
			f(cores)
			return nil
		}
		var err error
		if rerr := c.engines[i].Read(func(cc *core.Conn) {
			cores[i] = cc
			err = read(i + 1)
		}); rerr != nil {
			return rerr
		}
		return err
	}
	err := read(0)
	if errors.Is(err, engine.ErrClosed) {
		return ErrClosed
	}
	return err
}

// neighbors returns the boundary-aware neighbor enumerator over readAll's
// cores: edges incident to v can only live in v's shard engine (both
// endpoints hash there) or the boundary engine, so those two adjacency
// walks cover v's full neighborhood. treeOnly restricts to spanning-forest
// edges; the union of per-engine forests preserves the union graph's
// connectivity, which is what makes the composed tree path exact.
func (c *Coordinator) neighbors(cores []*core.Conn, treeOnly bool) func(v int32, dst []int32) []int32 {
	return func(v int32, dst []int32) []int32 {
		for _, cc := range [2]*core.Conn{cores[Partition(v, c.k)], cores[c.k]} {
			if treeOnly {
				dst = cc.TreeNeighbors(v, dst)
			} else {
				dst = cc.Neighbors(v, dst)
			}
		}
		return dst
	}
}

// composeLabels gathers every engine's published labelling and contracts
// them into one global min-vertex labelling: union(v, lbl_i[v]) for every
// engine i and vertex v, with union-by-minimum so each class's root IS its
// minimum vertex. O((k+1)·n·α), one n-entry allocation.
func (c *Coordinator) composeLabels() []int32 {
	n := c.n
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = int32(v)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for _, e := range c.engines {
		l := e.Recent()
		for v := int32(0); v < int32(n); v++ {
			lv := l.Label(v)
			if lv == v {
				continue
			}
			ra, rb := find(v), find(lv)
			if ra < rb {
				parent[rb] = ra
			} else if rb < ra {
				parent[ra] = rb
			}
		}
	}
	// Flatten in place: ascending v sees every smaller vertex already
	// pointing at its root, so one step reaches it.
	for v := range parent {
		parent[v] = parent[parent[v]]
	}
	return parent
}
