package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/adjlist"
	"repro/internal/ett"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// BatchDelete removes a batch of edges (Algorithm 3). Edges not present are
// ignored; returns the number actually deleted. Deleting tree edges triggers
// the level search (Algorithm 4 or 5 per the configured Algorithm),
// restoring a valid spanning forest hierarchy.
func (c *Conn) BatchDelete(es []graph.Edge) int {
	defer c.reclaim()
	es = graph.Dedup(es)
	recs := c.takeRecs(es)
	if len(recs) == 0 {
		return 0
	}
	c.stats.DeleteBatches++
	c.stats.Deletes += int64(len(recs))
	// Remove from adjacency lists and repair counters, before any cut.
	deltas := c.adj.BatchDelete(recs)
	c.applyDeltas(deltas)
	// Collect the deleted tree edges.
	treeRecs := parallel.Filter(recs, func(r *adjlist.Rec) bool { return r.IsTree })
	if len(treeRecs) == 0 {
		return len(recs)
	}
	// Cut each tree edge from F_{l(e)}..F_top. Forests are independent
	// structures, so levels run in parallel; BatchCut parallelizes across
	// tours within a level.
	minl := treeRecs[0].Level
	for _, r := range treeRecs {
		if r.Level < minl {
			minl = r.Level
		}
	}
	parallel.For(int(c.top)-int(minl)+1, 1, func(off int) {
		j := minl + int32(off)
		var cut []graph.Edge
		for _, r := range treeRecs {
			if r.Level <= j {
				cut = append(cut, r.E)
			}
		}
		c.f[j].BatchCut(cut)
	})
	// Witnesses: the endpoints of each deleted tree edge identify the
	// components requiring reconnection, starting at the edge's level.
	witnessesAt := make([][]graph.Vertex, c.top+1)
	for _, r := range treeRecs {
		witnessesAt[r.Level] = append(witnessesAt[r.Level], r.E.U, r.E.V)
	}
	var C []graph.Vertex
	var S []graph.Edge
	for i := minl; i <= c.top; i++ {
		C = append(C, witnessesAt[i]...)
		c.stats.LevelSearches++
		if c.alg == SearchSimple {
			C, S = c.searchSimple(i, C, S, treeRecs)
		} else {
			C, S = c.searchInterleaved(i, C, S, treeRecs)
		}
	}
	return len(recs)
}

// compInfo is one distinct disconnected piece at the current level.
type compInfo struct {
	w   graph.Vertex // witness vertex
	rep int32        // its F_i representative (stable while F_i is unmodified)
}

// dedupeComponents resolves witness vertices to distinct components of fi,
// dropping vertices sharing a representative. Vertices untouched at this
// level (rep 0) are singletons with no level-i edges; they are returned in
// the carry list to stay in D for higher levels.
func dedupeComponents(fi *ett.Forest, ws []graph.Vertex) (comps []compInfo, carry []graph.Vertex) {
	if len(ws) <= 24 {
		// Small-batch fast path: linear scans, no map allocation.
		for _, w := range ws {
			r := fi.Rep(w)
			if r == 0 {
				dup := false
				for _, c := range carry {
					if c == w {
						dup = true
						break
					}
				}
				if !dup {
					carry = append(carry, w)
				}
				continue
			}
			dup := false
			for _, c := range comps {
				if c.rep == r {
					dup = true
					break
				}
			}
			if !dup {
				comps = append(comps, compInfo{w: w, rep: r})
			}
		}
		return comps, carry
	}
	seen := make(map[int32]bool, len(ws))
	seenV := make(map[graph.Vertex]bool)
	for _, w := range ws {
		r := fi.Rep(w)
		if r == 0 {
			if !seenV[w] {
				seenV[w] = true
				carry = append(carry, w)
			}
			continue
		}
		if !seen[r] {
			seen[r] = true
			comps = append(comps, compInfo{w: w, rep: r})
		}
	}
	return comps, carry
}

// resolvePieces resolves the witnesses ws to distinct pieces of F_i and
// applies the size gate: pieces of at most 2^(i-1) vertices are returned for
// searching, and the witnesses of bigger pieces and of vertices untouched at
// level i are appended to D, the witnesses that go on to level i+1.
func resolvePieces(fi *ett.Forest, i int32, ws, D []graph.Vertex) ([]compInfo, []graph.Vertex) {
	comps, carry := dedupeComponents(fi, ws)
	D = append(D, carry...)
	half := int64(1) << uint(i-1)
	small := comps[:0]
	for _, ci := range comps {
		if fi.RepSize(ci.rep) <= half {
			small = append(small, ci)
		} else {
			D = append(D, ci.w)
		}
	}
	return small, D
}

// levelStart runs lines 1-5, which Algorithms 4 and 5 share: link the
// replacements S found at lower levels into F_i (each S edge enters each
// forest above its discovery level once, as each level is visited once on
// the way up), resolve the witnesses L to pieces and gate them by size, keep
// the pieces that can meet (meetingPieces) and push their level-i tree edges
// down. It returns the pieces to search and the witnesses D that go on to
// level i+1.
func (c *Conn) levelStart(i int32, L []graph.Vertex, S []graph.Edge, treeRecs []*adjlist.Rec) ([]compInfo, []graph.Vertex) {
	fi := c.f[i]
	fi.BatchLink(S)
	active, D := resolvePieces(fi, i, L, nil)
	if len(active) == 0 {
		return nil, D
	}
	active, alone := meetingPieces(fi, i, treeRecs, active)
	c.pushTreeEdges(i, active)
	return active, append(D, alone...)
}

// meetingPieces splits the active pieces of level i into those the search
// pushes and searches and the witnesses of the rest, which go on to level
// i+1 untouched. A replacement is a level-i non-tree edge between two
// pieces; it counts at both endpoints, and its endpoints lie in one
// pre-batch F_i tree. The deleted tree edges of level <= i, all cut from
// F_i, join that tree's pieces back into one group, and the replacements S
// linked at lower levels only merge pieces of one such tree. So a piece is
// searched only if it holds a level-i non-tree edge and another piece of its
// group holds one too. Every piece of the group counts, the ones too big to
// search included: a big piece can still be the far end of a replacement.
// An endpoint with representative 0 is an isolated vertex, a piece of its
// own without edges that keeps its group joined. In a group of exactly two
// holders every replacement has an endpoint in each, so when both are
// active only the smaller is kept (on a tie, the first in active), as HDT
// searches the smaller side of a split. DESIGN.md §2, "Level-search
// amortization", has the argument.
func meetingPieces(fi *ett.Forest, i int32, treeRecs []*adjlist.Rec, active []compInfo) (meet []compInfo, alone []graph.Vertex) {
	// A superSet over piece keys whose size is the number of the group's
	// pieces holding a level-i non-tree edge.
	groups := newSuperSet(2 * len(treeRecs))
	piece := func(v graph.Vertex) int32 {
		r := fi.Rep(v)
		if r == 0 {
			return groups.of(-1-v, 0)
		}
		var holds int64
		if fi.RepNonTree(r) > 0 {
			holds = 1
		}
		return groups.of(r, holds)
	}
	for _, r := range treeRecs {
		if r.Level <= i {
			groups.union(piece(r.E.U), piece(r.E.V))
		}
	}
	// pairAt[g] is 1 + the index in meet of the first kept holder of the
	// two-holder group with root g.
	var pairAt []int32
	for _, ci := range active {
		// Every active piece holds a witness, an endpoint of a deleted
		// tree edge of level <= i, so of finds its group.
		g := groups.of(ci.rep, 0)
		holders := groups.sizeOf(g)
		if fi.RepNonTree(ci.rep) == 0 || holders < 2 {
			alone = append(alone, ci.w)
			continue
		}
		if holders == 2 {
			if pairAt == nil {
				pairAt = make([]int32, len(groups.parent))
			}
			if k := pairAt[g] - 1; k >= 0 {
				if fi.RepSize(ci.rep) < fi.RepSize(meet[k].rep) {
					meet[k], ci = ci, meet[k]
				}
				alone = append(alone, ci.w)
				continue
			}
			pairAt[g] = int32(len(meet)) + 1
		}
		meet = append(meet, ci)
	}
	return meet, alone
}

// pushTreeEdges moves every level-i tree edge of the given active components
// down to level i-1 (line 5), so that their failed level-i candidates can
// follow. Callers pass only the components meetingPieces keeps: one
// without a level-i non-tree edge, or without another piece holding one to
// meet, can neither find nor receive a replacement at level i, and the
// larger of two such pieces is met by the smaller one's search. Keeping
// their tree edges at level i leaves F_{i-1} finer without breaking any
// invariant (DESIGN.md §2, "Level-search amortization"). The adjacency
// moves and counter updates run in parallel per component (components are
// vertex-disjoint, and F_{i-1} trees are sub-components); the F_{i-1} links
// follow, one group per component, through BatchLinkDisjoint.
func (c *Conn) pushTreeEdges(i int32, comps []compInfo) {
	if len(comps) == 0 {
		return
	}
	fi, fim1 := c.f[i], c.f[i-1]
	perComp := make([][]graph.Edge, len(comps))
	parallel.For(len(comps), 1, func(ci int) {
		rep := comps[ci].rep
		slots := fi.FetchTreeSlots(rep, 1<<62)
		// Copy before mutating: All returns a view into the adjacency
		// array, which Delete rearranges in place.
		var collected []*adjlist.Rec
		for _, s := range slots {
			collected = append(collected, c.adj.All(s.V, i, true)...)
		}
		var mine []*adjlist.Rec
		for _, r := range collected {
			if r.Level == i { // skip records already moved via their other endpoint
				c.adj.Delete(r)
				r.Level = i - 1
				c.adj.Insert(r)
				mine = append(mine, r)
			}
		}
		var edges []graph.Edge
		for _, r := range mine {
			fi.AddCounts(r.E.U, -1, 0)
			fi.AddCounts(r.E.V, -1, 0)
			fim1.AddCounts(r.E.U, 1, 0)
			fim1.AddCounts(r.E.V, 1, 0)
			edges = append(edges, r.E)
			atomic.AddInt64(&c.stats.TreePushes, 1)
		}
		perComp[ci] = edges
	})
	if i > 1 {
		// Components are vertex-disjoint, so their F_{i-1} sub-forests
		// are too: link groups in parallel.
		fim1.BatchLinkDisjoint(perComp)
	} else {
		for _, edges := range perComp {
			if len(edges) > 0 {
				panic("core: tree edges pushed below level 1")
			}
		}
	}
}

// fetchCandidates returns the records behind the first `limit` level-i
// non-tree edge slots of the component with representative rep, in tour
// order.
func (c *Conn) fetchCandidates(fi *ett.Forest, i, rep int32, limit int64) (out []*adjlist.Rec) {
	if limit <= 0 {
		return nil
	}
	var consumed int64
	for _, s := range fi.FetchNonTreeSlots(rep, limit) {
		take := s.Cnt
		if consumed+take > limit {
			take = limit - consumed
		}
		for _, r := range c.adj.Fetch(s.V, i, false, int(take)) {
			consumed++
			out = append(out, r)
		}
		if consumed >= limit {
			break
		}
	}
	// An intra-component record can appear twice (once per endpoint slot).
	// Downstream consumers are duplicate-tolerant: the replacement scan is
	// order-based, and pushNonTree skips records already moved (level
	// guard), so no dedup map is needed on this hot path.
	return out
}

// pushNonTree moves the given non-tree records from level i to level i-1,
// updating adjacency lists and counters. Caller guarantees the records'
// endpoints all lie within one component owned by the calling goroutine.
//
// Soundness guard (implementation deviation from the paper's pseudocode): a
// record is only moved if its endpoints are connected in F_{i-1}. When
// pieces merge through a replacement edge — which lives at level i — an
// intra-component edge spanning the merge boundary is NOT connected one
// level down; pushing it would break the invariant that a level-j non-tree
// edge has endpoints connected in G_j, which later searches rely on (it is
// what lets a promoted replacement be linked into every forest above its
// level without creating cycles). Such edges simply remain at level i and
// may be re-examined; DESIGN.md §2, "Level-search amortization", prices
// that.
func (c *Conn) pushNonTree(i int32, recs []*adjlist.Rec) {
	if len(recs) == 0 {
		return
	}
	if i == 1 {
		panic("core: non-tree edges pushed below level 1")
	}
	fi, fim1 := c.f[i], c.f[i-1]
	pushed := int64(0)
	for _, r := range recs {
		if r.Level != i {
			continue // duplicate occurrence; already moved
		}
		if !fim1.Connected(r.E.U, r.E.V) {
			continue
		}
		c.adj.Delete(r)
		fi.AddCounts(r.E.U, 0, -1)
		fi.AddCounts(r.E.V, 0, -1)
		r.Level = i - 1
		c.adj.Insert(r)
		fim1.AddCounts(r.E.U, 0, 1)
		fim1.AddCounts(r.E.V, 0, 1)
		pushed++
	}
	atomic.AddInt64(&c.stats.Pushdowns, pushed)
}

// searchSimple is ParallelLevelSearch (Algorithm 4): each round restarts a
// doubling search in every remaining active component, pushes failed
// candidates immediately, then commits a spanning forest of the found
// replacements and resolves the pieces still searching against the updated
// forest. Returns the components for the next level (D) and the
// accumulated found tree edges (S).
func (c *Conn) searchSimple(i int32, L []graph.Vertex, S []graph.Edge, treeRecs []*adjlist.Rec) ([]graph.Vertex, []graph.Edge) {
	active, D := c.levelStart(i, L, S, treeRecs)
	for guard := 1; len(active) > 0; guard++ {
		if guard > 4*c.n+16 {
			panic(fmt.Sprintf("core: searchSimple(level %d) did not converge", i))
		}
		atomic.AddInt64(&c.stats.Rounds, 1)
		// Phase 1: doubling search per component, in parallel.
		found := make([]*adjlist.Rec, len(active))
		exhausted := make([]bool, len(active))
		parallel.For(len(active), 1, func(ci int) {
			found[ci], exhausted[ci] = c.doublingSearch(i, active[ci].rep)
		})
		// Phase 2: commit a spanning forest of the replacements.
		var R []*adjlist.Rec
		rseen := make(map[*adjlist.Rec]bool)
		for _, r := range found {
			if r != nil && !rseen[r] {
				rseen[r] = true
				R = append(R, r)
			}
		}
		var nextWitness []graph.Vertex
		for ci := range active {
			if exhausted[ci] {
				D = append(D, active[ci].w)
			} else {
				nextWitness = append(nextWitness, active[ci].w)
			}
		}
		if len(R) > 0 {
			chosen := c.linkForest(i, R)
			S = append(S, chosen...)
			atomic.AddInt64(&c.stats.Replaced, int64(len(chosen)))
		}
		active, D = resolvePieces(c.f[i], i, nextWitness, D)
	}
	return D, S
}

// doublingSearch runs the per-component inner loop of Algorithm 4: phases of
// geometrically increasing candidate prefixes until a replacement edge is
// found or the component's level-i non-tree edges are exhausted. Failed
// candidates preceding the first replacement are pushed to level i-1
// immediately; on exhaustion everything is pushed. Returns the replacement
// record (nil if none) and whether the component is exhausted.
func (c *Conn) doublingSearch(i, rep int32) (*adjlist.Rec, bool) {
	fi := c.f[i]
	cmax := fi.RepNonTree(rep)
	if cmax == 0 {
		return nil, true
	}
	for w := 0; ; w++ {
		atomic.AddInt64(&c.stats.Phases, 1)
		csz := min(int64(1)<<uint(min(w, 60)), cmax)
		ec := c.fetchCandidates(fi, i, rep, csz)
		atomic.AddInt64(&c.stats.EdgesExamined, int64(len(ec)))
		for k, r := range ec {
			if replaces(fi, rep, r) {
				// First replacement: push everything before it.
				c.pushNonTree(i, ec[:k])
				return r, false
			}
		}
		if csz == cmax {
			c.pushNonTree(i, ec)
			return nil, true
		}
	}
}

// replaces reports whether the level-i non-tree record r, fetched from the
// piece of F_i with representative rep, is a replacement: an endpoint lies
// in another piece.
func replaces(fi *ett.Forest, rep int32, r *adjlist.Rec) bool {
	return fi.Rep(r.E.U) != rep || fi.Rep(r.E.V) != rep
}
