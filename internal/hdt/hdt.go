// Package hdt implements the classic sequential dynamic-connectivity
// algorithm of Holm, de Lichtenberg and Thorup (J.ACM 2001) — the algorithm
// the paper parallelizes and measures itself against. It reuses the same
// Euler-tour-tree and adjacency substrates as the parallel structure, driven
// strictly one edge at a time: O(lg^2 n) amortized per update, O(lg n) per
// query.
//
// Levels are numbered 1..L with L = ceil(lg2 n); G_i contains the edges of
// level <= i, F_i is its spanning forest, and components of G_i have at most
// 2^i vertices (Invariant 1). F_L is a minimum spanning forest with respect
// to edge levels (Invariant 2).
package hdt

import (
	"repro/internal/adjlist"
	"repro/internal/ett"
	"repro/internal/graph"
	"repro/internal/levelcheck"
)

// Stats counts the work-proxy events used by the experiment harness.
type Stats struct {
	Inserts    int64
	Deletes    int64
	Replaced   int64 // successful replacement edges found
	Pushdowns  int64 // edge level decreases
	EdgesSeen  int64 // non-tree edges examined as candidates
	TreePushes int64 // tree-edge level decreases
}

// Conn is the sequential HDT dynamic connectivity structure.
type Conn struct {
	n     int
	top   int32 // L
	f     []*ett.Forest
	adj   *adjlist.Store
	edges map[uint64]*adjlist.Rec
	stats Stats
}

// New creates an empty graph over n vertices.
func New(n int) *Conn {
	l := graph.Levels(n)
	c := &Conn{
		n:     n,
		top:   int32(l),
		f:     make([]*ett.Forest, l+1),
		adj:   adjlist.New(n, l+1),
		edges: make(map[uint64]*adjlist.Rec),
	}
	for i := 1; i <= l; i++ {
		c.f[i] = ett.New(n)
	}
	return c
}

// N returns the vertex count.
func (c *Conn) N() int { return c.n }

// NumEdges returns the number of edges currently in the graph.
func (c *Conn) NumEdges() int { return len(c.edges) }

// Stats returns accumulated work counters.
func (c *Conn) Stats() Stats { return c.stats }

// Connected reports whether u and v are connected.
func (c *Conn) Connected(u, v graph.Vertex) bool {
	return c.f[c.top].Connected(u, v)
}

// HasEdge reports whether edge (u,v) is present.
func (c *Conn) HasEdge(u, v graph.Vertex) bool {
	_, ok := c.edges[graph.Edge{U: u, V: v}.Key()]
	return ok
}

// Insert adds edge (u, v) at the top level; returns false for self-loops
// and duplicates.
func (c *Conn) Insert(u, v graph.Vertex) bool {
	e := graph.Edge{U: u, V: v}.Canon()
	if e.IsLoop() {
		return false
	}
	if _, dup := c.edges[e.Key()]; dup {
		return false
	}
	c.stats.Inserts++
	r := &adjlist.Rec{E: e, Level: c.top}
	if !c.f[c.top].Connected(e.U, e.V) {
		r.IsTree = true
		c.f[c.top].Link(e.U, e.V)
		c.f[c.top].AddCounts(e.U, 1, 0)
		c.f[c.top].AddCounts(e.V, 1, 0)
	} else {
		c.f[c.top].AddCounts(e.U, 0, 1)
		c.f[c.top].AddCounts(e.V, 0, 1)
	}
	c.adj.Insert(r)
	c.edges[e.Key()] = r
	return true
}

// Delete removes edge (u, v); returns false if absent. If a tree edge is
// removed, the HDT replacement search runs, possibly reconnecting the two
// halves with a former non-tree edge.
func (c *Conn) Delete(u, v graph.Vertex) bool {
	e := graph.Edge{U: u, V: v}.Canon()
	r, ok := c.edges[e.Key()]
	if !ok {
		return false
	}
	c.stats.Deletes++
	delete(c.edges, e.Key())
	c.adj.Delete(r)
	lvl := r.Level
	if !r.IsTree {
		c.f[lvl].AddCounts(e.U, 0, -1)
		c.f[lvl].AddCounts(e.V, 0, -1)
		return true
	}
	c.f[lvl].AddCounts(e.U, -1, 0)
	c.f[lvl].AddCounts(e.V, -1, 0)
	for i := lvl; i <= c.top; i++ {
		c.f[i].Cut(e.U, e.V)
	}
	c.replace(e.U, e.V, lvl)
	return true
}

// replace searches levels lvl..top for an edge reconnecting the components
// of u and v, applying the HDT level-decrease charging scheme.
func (c *Conn) replace(u, v graph.Vertex, lvl int32) {
	for i := lvl; i <= c.top; i++ {
		// Search the smaller side.
		w := u
		if c.f[i].Size(v) < c.f[i].Size(u) {
			w = v
		}
		if c.f[i].CompNonTree(w) == 0 {
			// No level-i non-tree edge touches w's side, so no
			// replacement lives here: keep its tree edges at level i.
			continue
		}
		c.pushTreeEdges(w, i)
		if c.scanNonTree(w, i) {
			return
		}
	}
}

// pushTreeEdges moves every level-i tree edge of w's component down to level
// i-1 (legal because the searched side has size <= 2^(i-1)).
func (c *Conn) pushTreeEdges(w graph.Vertex, i int32) {
	rep := c.f[i].Rep(w)
	if rep == nil {
		return
	}
	slots := c.f[i].FetchTreeSlots(rep, 1<<62)
	var recs []*adjlist.Rec
	for _, s := range slots {
		recs = append(recs, c.adj.All(s.V, i, true)...)
	}
	for _, r := range recs {
		if r.Level != i { // already moved via its other endpoint
			continue
		}
		c.adj.Delete(r)
		r.Level = i - 1
		c.adj.Insert(r)
		c.f[i].AddCounts(r.E.U, -1, 0)
		c.f[i].AddCounts(r.E.V, -1, 0)
		c.f[i-1].AddCounts(r.E.U, 1, 0)
		c.f[i-1].AddCounts(r.E.V, 1, 0)
		c.f[i-1].Link(r.E.U, r.E.V)
		c.stats.TreePushes++
	}
}

// scanNonTree examines the level-i non-tree edges of w's component one at a
// time. A replacement is promoted to a tree edge at level i and linked into
// F_i..F_L; every unsuccessful candidate is pushed to level i-1. Returns
// whether a replacement was found.
func (c *Conn) scanNonTree(w graph.Vertex, i int32) bool {
	rep := c.f[i].Rep(w)
	if rep == nil {
		return false
	}
	for c.f[i].CompNonTree(w) > 0 {
		slots := c.f[i].FetchNonTreeSlots(rep, 1)
		if len(slots) == 0 {
			break
		}
		x := slots[0].V
		recs := c.adj.Fetch(x, i, false, 1)
		if len(recs) == 0 {
			break
		}
		r := recs[0]
		y := r.E.Other(x)
		c.stats.EdgesSeen++
		if c.f[i].Rep(y) != rep {
			// Replacement: promote to a tree edge at level i.
			c.adj.Delete(r)
			c.f[i].AddCounts(r.E.U, 0, -1)
			c.f[i].AddCounts(r.E.V, 0, -1)
			r.IsTree = true
			c.adj.Insert(r)
			c.f[i].AddCounts(r.E.U, 1, 0)
			c.f[i].AddCounts(r.E.V, 1, 0)
			for j := i; j <= c.top; j++ {
				c.f[j].Link(r.E.U, r.E.V)
			}
			c.stats.Replaced++
			return true
		}
		// Not a replacement: push to level i-1.
		c.adj.Delete(r)
		c.f[i].AddCounts(r.E.U, 0, -1)
		c.f[i].AddCounts(r.E.V, 0, -1)
		r.Level = i - 1
		c.adj.Insert(r)
		c.f[i-1].AddCounts(r.E.U, 0, 1)
		c.f[i-1].AddCounts(r.E.V, 0, 1)
		c.stats.Pushdowns++
	}
	return false
}

// CheckInvariants verifies the two HDT invariants plus structural agreement
// between the forests, the adjacency store and the edge dictionary. For
// tests; O(n lg n + m).
func (c *Conn) CheckInvariants() error {
	recs := make([]*adjlist.Rec, 0, len(c.edges))
	for _, r := range c.edges {
		recs = append(recs, r)
	}
	return levelcheck.Check(c.n, int(c.top), c.f, c.adj, recs)
}
