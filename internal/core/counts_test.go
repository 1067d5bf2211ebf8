package core

import (
	"fmt"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/parallel"
)

// TestDeletePathCounts pins every work counter of one churn stream exactly,
// for both level searches, so that a refactor of the deletion path that
// claims to keep its behaviour can be checked: n = 2^12, one parallel worker
// (the spanning-forest choice then repeats), a 4096-edge preload, then
// rounds of Δ inserts of new random edges and Δ deletes of the oldest live
// ones until 4096 edges have been deleted (the last round is shorter when Δ
// does not divide 4096). It also pins the sizes of the resulting spanning
// forest and non-tree edge set. They are totals: they catch a change in how
// much the searches examine, push or promote, not in which edges they pick.
func TestDeletePathCounts(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	const n, m, deletes = 1 << 12, 4096, 4096
	es := graphgen.RandomGraph(n, m+deletes, 36)
	type want struct {
		s               Stats
		forest, nonTree int
	}
	cases := []struct {
		alg   Algorithm
		delta int
		want  want
	}{
		// Stats in field order: Inserts, Deletes, InsertBatches,
		// DeleteBatches, Replaced, Pushdowns, TreePushes, EdgesExamined,
		// Rounds, Phases, LevelSearches; then the forest and non-tree sizes.
		{SearchInterleaved, 1, want{Stats{8192, 4096, 4097, 4096, 2553, 83, 15959, 2780, 2624, 0, 12685}, 3430, 666}},
		{SearchInterleaved, 7, want{Stats{8192, 4096, 587, 586, 2547, 107, 14832, 2802, 687, 0, 2122}, 3430, 666}},
		{SearchInterleaved, 16, want{Stats{8192, 4096, 257, 256, 2551, 139, 14227, 2878, 354, 0, 869}, 3430, 666}},
		{SearchInterleaved, 512, want{Stats{8192, 4096, 9, 8, 2745, 1737, 5171, 5864, 22, 0, 20}, 3430, 666}},
		{SearchSimple, 1, want{Stats{8192, 4096, 4097, 4096, 2557, 143, 19177, 3036, 2611, 2800, 14199}, 3430, 666}},
		{SearchSimple, 7, want{Stats{8192, 4096, 587, 586, 2556, 111, 16795, 2981, 705, 2760, 2517}, 3430, 666}},
		{SearchSimple, 16, want{Stats{8192, 4096, 257, 256, 2554, 110, 17101, 2928, 375, 2762, 1016}, 3430, 666}},
		{SearchSimple, 512, want{Stats{8192, 4096, 9, 8, 2741, 5, 6568, 3061, 26, 3042, 20}, 3430, 666}},
	}
	for _, tc := range cases {
		if testing.Short() && tc.delta == 1 {
			continue // 4096 single-edge batches; the race job runs -short
		}
		name := "interleaved"
		if tc.alg == SearchSimple {
			name = "simple"
		}
		t.Run(fmt.Sprintf("%s/delta=%d", name, tc.delta), func(t *testing.T) {
			c := New(n, WithAlgorithm(tc.alg))
			c.BatchInsert(es[:m])
			for lo := 0; lo < deletes; lo += tc.delta {
				d := min(tc.delta, deletes-lo)
				c.BatchInsert(es[m+lo : m+lo+d])
				c.BatchDelete(es[lo : lo+d])
			}
			got := want{c.Stats(), len(c.SpanningForest()), len(c.NonTreeEdges())}
			if got != tc.want {
				t.Errorf("got  %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
