package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adjlist"
	"repro/internal/graph"
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
		{SearchInterleaved, 1, want{Stats{8192, 4096, 4097, 4096, 2553, 57, 11239, 2663, 2610, 0, 10447}, 3430, 666}},
		{SearchInterleaved, 7, want{Stats{8192, 4096, 587, 586, 2557, 76, 12135, 2734, 672, 0, 1717}, 3430, 666}},
		{SearchInterleaved, 16, want{Stats{8192, 4096, 257, 256, 2556, 105, 10956, 2793, 328, 0, 773}, 3430, 666}},
		{SearchInterleaved, 512, want{Stats{8192, 4096, 9, 8, 2745, 1736, 5027, 5849, 22, 0, 20}, 3430, 666}},
		{SearchSimple, 1, want{Stats{8192, 4096, 4097, 4096, 2554, 84, 12231, 2826, 2611, 2678, 11067}, 3430, 666}},
		{SearchSimple, 7, want{Stats{8192, 4096, 587, 586, 2554, 88, 12926, 2896, 709, 2719, 1834}, 3430, 666}},
		{SearchSimple, 16, want{Stats{8192, 4096, 257, 256, 2556, 112, 13275, 2978, 394, 2743, 899}, 3430, 666}},
		{SearchSimple, 512, want{Stats{8192, 4096, 9, 8, 2742, 5, 6500, 3061, 28, 3040, 20}, 3430, 666}},
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

// TestLevelDecreaseAccounting checks that the level-decrease counters count
// exactly the levels records fall, for both level searches: after every
// BatchDelete, the growth of Pushdowns + TreePushes must equal the sum, over
// the records live both before and after the batch, of their level before
// minus their level after. A non-tree record the interleaved search takes off
// level i and lands back on it (the soundness guard) must not count: seeds 3
// and 7 of the grid storms reach that landing. It runs on ten seeds of
// TestGridStormAgainstOracle's storms (ten storms on a 12x12 grid, each
// re-inserting half of its edges) and on the churn stream of
// TestDeletePathCounts.
func TestLevelDecreaseAccounting(t *testing.T) {
	for name, alg := range algs() {
		t.Run(name+"/grid", func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				c := New(12*12, WithAlgorithm(alg))
				live := graphgen.Grid(12, 12)
				c.BatchInsert(live)
				rng := rand.New(rand.NewSource(seed))
				for storm := 0; storm < 10; storm++ {
					var dead, repair []graph.Edge
					dead, live = pickStorm(rng, live)
					if err := deleteAccounted(c, dead); err != nil {
						t.Fatalf("seed %d, storm %d: %v", seed, storm, err)
					}
					repair, live = halfRepair(dead, live)
					c.BatchInsert(repair)
				}
			}
		})
		for _, delta := range []int{1, 7, 16, 512} {
			if testing.Short() && delta == 1 {
				continue // 4096 single-edge batches; the race job runs -short
			}
			t.Run(fmt.Sprintf("%s/churn/delta=%d", name, delta), func(t *testing.T) {
				defer parallel.SetWorkers(parallel.SetWorkers(1))
				const n, m, deletes = 1 << 12, 4096, 4096
				es := graphgen.RandomGraph(n, m+deletes, 36)
				c := New(n, WithAlgorithm(alg))
				c.BatchInsert(es[:m])
				for lo := 0; lo < deletes; lo += delta {
					d := min(delta, deletes-lo)
					c.BatchInsert(es[m+lo : m+lo+d])
					if err := deleteAccounted(c, es[lo:lo+d]); err != nil {
						t.Fatalf("after %d deletes: %v", lo, err)
					}
				}
			})
		}
	}
}

// deleteAccounted runs c.BatchDelete(es) and compares the levels its live
// records fell with the level decreases it counted. BatchDelete adds no
// record, so a record that survives it keeps its arena slot.
func deleteAccounted(c *Conn, es []graph.Edge) error {
	recs := append([]*adjlist.Rec(nil), c.arena...)
	levels := make([]int32, len(recs))
	for k, r := range recs {
		if r != nil {
			levels[k] = r.Level
		}
	}
	before := c.Stats()
	c.BatchDelete(es)
	after := c.Stats()
	var fell int64
	for k, r := range recs {
		if r != nil && c.arena[k] == r {
			fell += int64(levels[k] - r.Level)
		}
	}
	if counted := after.Pushdowns + after.TreePushes - before.Pushdowns - before.TreePushes; counted != fell {
		return fmt.Errorf("counted %d level decreases, records fell %d levels", counted, fell)
	}
	return nil
}
