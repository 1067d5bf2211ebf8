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

// Result is the output of Forest: for each input edge index, whether it was
// chosen as a spanning-forest edge, plus the component label of every
// distinct endpoint (labels are indices into Verts).
type Result struct {
	Chosen []bool         // per input edge
	Verts  []uint64       // distinct endpoint ids, densely labelled 0..len-1
	Label  map[uint64]int // endpoint id -> dense label of its component root
}

// Forest computes a spanning forest over edges whose endpoints are opaque
// uint64 ids. Self-loops are never chosen. Deterministic choice among
// parallel candidates is not guaranteed (any maximal forest is valid).
func Forest(us, vs []uint64) Result {
	k := len(us)
	res := Result{Chosen: make([]bool, k), Label: make(map[uint64]int, 2*k)}
	if k == 0 {
		return res
	}
	// Dense relabelling (sequential map build; O(k)).
	id := make(map[uint64]int32, 2*k)
	for i := 0; i < k; i++ {
		if _, ok := id[us[i]]; !ok {
			id[us[i]] = int32(len(res.Verts))
			res.Verts = append(res.Verts, us[i])
		}
		if _, ok := id[vs[i]]; !ok {
			id[vs[i]] = int32(len(res.Verts))
			res.Verts = append(res.Verts, vs[i])
		}
	}
	n := len(res.Verts)
	uf := unionfind.NewConcurrent(n)
	a := make([]int32, k)
	b := make([]int32, k)
	parallel.For(k, 2048, func(i int) {
		a[i] = id[us[i]]
		b[i] = id[vs[i]]
	})
	// Parallel union sweep: an edge is chosen iff its Union performed the
	// link. Concurrent unions on the same pair race benignly — exactly one
	// wins — so the chosen set is a maximal spanning forest.
	parallel.For(k, 64, func(i int) {
		if a[i] != b[i] && uf.Union(a[i], b[i]) {
			res.Chosen[i] = true
		}
	})
	// Final labels after quiescence (map fill is sequential; the Find
	// sweep above is the parallel part).
	labels := make([]int32, n)
	parallel.For(n, 2048, func(i int) { labels[i] = uf.Find(int32(i)) })
	for i := 0; i < n; i++ {
		res.Label[res.Verts[i]] = int(labels[i])
	}
	return res
}
