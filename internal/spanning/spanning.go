// Package spanning computes a static spanning forest of a batch of edges in
// parallel. The paper invokes Gazit's optimal randomized connectivity
// algorithm for this step; we substitute a CAS-based parallel union-find
// sweep (randomized linking, path halving), which does O(k α(k)) ≈ O(k)
// expected work on a batch of k edges and parallelizes well — the only
// properties the connectivity algorithm relies on.
//
// The input edges are given over an arbitrary vertex universe (the
// algorithm passes component representatives); Forest first relabels the
// endpoints densely via a local map, then runs the union sweep.
package spanning

import (
	"repro/internal/parallel"
	"repro/internal/unionfind"
)

// Forest computes a spanning forest over edges whose endpoints are opaque
// uint64 ids and reports, for each input edge, whether it was chosen.
// Self-loops are never chosen. Deterministic choice among parallel
// candidates is not guaranteed (any maximal forest is valid).
func Forest(us, vs []uint64) []bool {
	k := len(us)
	chosen := make([]bool, k)
	if k == 0 {
		return chosen
	}
	// Dense relabelling in first-occurrence order (sequential map build;
	// O(k)).
	id := make(map[uint64]int32, 2*k)
	dense := func(x uint64) int32 {
		d, ok := id[x]
		if !ok {
			d = int32(len(id))
			id[x] = d
		}
		return d
	}
	a := make([]int32, k)
	b := make([]int32, k)
	for i := 0; i < k; i++ {
		a[i] = dense(us[i])
		b[i] = dense(vs[i])
	}
	uf := unionfind.NewConcurrent(len(id))
	// Parallel union sweep: an edge is chosen iff its Union performed the
	// link. Concurrent unions on the same pair race benignly — exactly one
	// wins — so the chosen set is a maximal spanning forest.
	parallel.For(k, 64, func(i int) {
		if a[i] != b[i] && uf.Union(a[i], b[i]) {
			chosen[i] = true
		}
	})
	return chosen
}
