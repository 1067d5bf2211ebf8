package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/adjlist"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/spanning"
)

// superSet tracks the contracted supercomponents of Algorithm 5 (the map M):
// as replacement edges are committed, the F_i pieces they join are merged
// here — without touching F_i itself, whose components must stay stable for
// the duration of the level search. Sizes of supercomponents gate both the
// active-component check and the legality of pushing a round's edges down.
type superSet struct {
	byRep  map[int32]int32
	parent []int32
	size   []int64
}

func newSuperSet() *superSet {
	return &superSet{byRep: make(map[int32]int32)}
}

// find resolves a super index to its current root.
func (s *superSet) find(x int32) int32 {
	for s.parent[x] != x {
		s.parent[x] = s.parent[s.parent[x]]
		x = s.parent[x]
	}
	return x
}

// of returns (creating if needed) the super root of the F_i component with
// representative rep, whose vertex count is sz.
func (s *superSet) of(rep int32, sz int64) int32 {
	if idx, ok := s.byRep[rep]; ok {
		return s.find(idx)
	}
	idx := int32(len(s.parent))
	s.byRep[rep] = idx
	s.parent = append(s.parent, idx)
	s.size = append(s.size, sz)
	return idx
}

// union merges two super roots, summing sizes.
func (s *superSet) union(a, b int32) {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return
	}
	s.parent[rb] = ra
	s.size[ra] += s.size[rb]
}

// sizeOf returns the current size of x's supercomponent.
func (s *superSet) sizeOf(x int32) int64 { return s.size[s.find(x)] }

// searchInterleaved is InterleavedLevelSearch (Algorithm 5). One search size
// 2^r grows across ALL rounds of the level; tree-edge insertion into F_i and
// the push-down of examined edges are deferred to the end of the level.
// Components keep searching from their original (stable) F_i pieces until
// their supercomponent grows past 2^(i-1) or they run out of edges.
func (c *Conn) searchInterleaved(i int32, L []graph.Vertex, S []graph.Edge) ([]graph.Vertex, []graph.Edge) {
	fi := c.f[i]
	c.insertFoundForest(fi, S)
	comps, carry := dedupeComponents(fi, L)
	half := int64(1) << uint(i-1)
	var D []graph.Vertex
	D = append(D, carry...)
	var active []compInfo
	for _, ci := range comps {
		if fi.RepSize(ci.rep) <= half {
			active = append(active, ci)
		} else {
			D = append(D, ci.w)
		}
	}
	if len(active) == 0 {
		return D, S
	}
	c.pushTreeEdges(i, withNonTree(fi, active))

	supers := newSuperSet()
	for _, ci := range active {
		supers.of(ci.rep, fi.RepSize(ci.rep))
	}
	var T []*adjlist.Rec // committed replacement records (deferred)
	chosenSet := make(map[*adjlist.Rec]bool)
	var EP []*adjlist.Rec // records removed from level i, pushed at the end
	inEP := make(map[*adjlist.Rec]bool)

	guard := 0
	for r := 0; len(active) > 0; r++ {
		guard++
		if guard > 4*c.n+64 {
			panic(fmt.Sprintf("core: searchInterleaved(level %d) did not converge", i))
		}
		atomic.AddInt64(&c.stats.Rounds, 1)
		sz := int64(1) << uint(min64(int64(r), 60))
		// Fetch candidates and classify replacements, per component in
		// parallel. F_i is never modified inside this loop, so the
		// representatives captured in `active` remain valid.
		type roundRes struct {
			ec        []*adjlist.Rec
			repl      []*adjlist.Rec
			exhausted bool
		}
		results := make([]roundRes, len(active))
		parallel.For(len(active), 1, func(ci int) {
			rep := active[ci].rep
			cmax := fi.RepNonTree(rep)
			if cmax == 0 {
				results[ci] = roundRes{exhausted: true}
				return
			}
			csz := min64(sz, cmax)
			ec, _ := c.fetchCandidates(fi, i, rep, csz)
			atomic.AddInt64(&c.stats.EdgesExamined, int64(len(ec)))
			var repl []*adjlist.Rec
			for _, rc := range ec {
				other := fi.Rep(rc.E.U)
				if other == rep {
					other = fi.Rep(rc.E.V)
				}
				if other != rep {
					repl = append(repl, rc)
				}
			}
			results[ci] = roundRes{ec: ec, repl: repl, exhausted: csz == cmax}
		})
		// Commit a spanning forest of this round's replacements over the
		// current supercomponents (lines 16-21).
		var R []*adjlist.Rec
		rseen := make(map[*adjlist.Rec]bool)
		for ci := range results {
			for _, rc := range results[ci].repl {
				if !rseen[rc] && !chosenSet[rc] {
					rseen[rc] = true
					R = append(R, rc)
				}
			}
		}
		if len(R) > 0 {
			us := make([]uint64, len(R))
			vs := make([]uint64, len(R))
			su := make([]int32, len(R))
			sv := make([]int32, len(R))
			for k, rc := range R {
				ru, rv := fi.Rep(rc.E.U), fi.Rep(rc.E.V)
				su[k] = supers.of(ru, fi.RepSize(ru))
				sv[k] = supers.of(rv, fi.RepSize(rv))
				us[k] = uint64(su[k])
				vs[k] = uint64(sv[k])
			}
			sf := spanning.Forest(us, vs)
			for k, rc := range R {
				if sf.Chosen[k] {
					chosenSet[rc] = true
					T = append(T, rc)
					supers.union(su[k], sv[k])
					atomic.AddInt64(&c.stats.Replaced, 1)
				}
			}
		}
		// Decide per component: keep searching (remove this round's
		// candidates from level i for the deferred push) or deactivate
		// (lines 22-31).
		var pushRound []*adjlist.Rec
		var nextActive []compInfo
		for ci := range active {
			res := results[ci]
			superSz := supers.sizeOf(supers.of(active[ci].rep, fi.RepSize(active[ci].rep)))
			if superSz <= half && !res.exhausted {
				for _, rc := range res.ec {
					if !inEP[rc] {
						inEP[rc] = true
						pushRound = append(pushRound, rc)
					}
				}
				nextActive = append(nextActive, active[ci])
			} else {
				D = append(D, active[ci].w)
			}
		}
		if len(pushRound) > 0 {
			if i == 1 {
				panic("core: interleaved push below level 1")
			}
			// Remove from level i now; the records enter level i-1 at
			// the end of the level. Counter repair groups by the
			// still-stable F_i components.
			deltas := c.adj.BatchDelete(pushRound)
			c.applyDeltas(deltas)
			EP = append(EP, pushRound...)
			atomic.AddInt64(&c.stats.Pushdowns, int64(len(pushRound)))
		}
		active = nextActive
	}

	// End of level (lines 33-35): land the pushed records on level i-1,
	// promote the committed replacements, and only now mutate the forests.
	if len(EP) > 0 {
		fim1 := c.f[i-1]
		// Chosen tree edges in EP enter F_{i-1} first, so the
		// connectivity guard below sees the merged structure.
		var treeEP, nonTreeEP []*adjlist.Rec
		for _, rc := range EP {
			if chosenSet[rc] {
				rc.IsTree = true
				rc.Level = i - 1
				treeEP = append(treeEP, rc)
			} else {
				nonTreeEP = append(nonTreeEP, rc)
			}
		}
		if len(treeEP) > 0 {
			deltas := c.adj.BatchInsert(treeEP)
			c.applyDeltas(deltas)
			var edges []graph.Edge
			for _, rc := range treeEP {
				edges = append(edges, rc.E)
			}
			fim1.BatchLink(edges)
		}
		// Soundness guard (see pushNonTree): a non-tree record may only
		// descend if its endpoints are connected in F_{i-1}; edges
		// spanning pieces whose connecting tree edge stayed at level i
		// would otherwise violate the level invariant. The rest return
		// to level i.
		if len(nonTreeEP) > 0 {
			ok := make([]bool, len(nonTreeEP))
			parallel.For(len(nonTreeEP), 64, func(k int) {
				ok[k] = fim1.Connected(nonTreeEP[k].E.U, nonTreeEP[k].E.V)
			})
			down := int64(0)
			for k, rc := range nonTreeEP {
				if ok[k] {
					rc.Level = i - 1
					down++
				} else {
					rc.Level = i
					atomic.AddInt64(&c.stats.Pushdowns, -1) // counted optimistically below
				}
			}
			deltas := c.adj.BatchInsert(nonTreeEP)
			c.applyDeltas(deltas)
			_ = down
		}
	}
	// Promote chosen records still living at level i (those whose finder
	// deactivated before pushing them).
	var atLevel []*adjlist.Rec
	var allTreeEdges []graph.Edge
	for _, rc := range T {
		allTreeEdges = append(allTreeEdges, rc.E)
		if !inEP[rc] {
			atLevel = append(atLevel, rc)
		}
	}
	c.promote(atLevel, i)
	fi.BatchLink(allTreeEdges)
	S = append(S, allTreeEdges...)
	return D, S
}
