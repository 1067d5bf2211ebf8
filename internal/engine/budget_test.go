package engine

import (
	"testing"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/graph"
)

// TestEpochAllocBudget pins the allocations the epoch pipeline adds to the
// core: one memory-only Apply of 64 intra-component inserts (staging,
// drain, execEpoch's pre-scans, the snapshot Prepare/Publish that finds
// nothing to repair, the ack) against the same BatchInsert on a twin
// core.Conn in the same state. The core's own share (over 95 % of the
// epoch) is subtracted, so a regression of a few allocations per epoch in
// the pipeline is not lost in it.
func TestEpochAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	const n, batch, runs = 1024, 64, 50
	// Round 0 is the path 0..n-1; round r > 0 is 64 fresh chords of it,
	// all intra-component and all new, so every one is credited and none
	// moves a label. AllocsPerRun makes runs+1 calls.
	rounds := make([][]graph.Edge, runs+2)
	for v := int32(1); v < n; v++ {
		rounds[0] = append(rounds[0], graph.Edge{U: v - 1, V: v})
	}
	for r := 1; r < len(rounds); r++ {
		for i := 0; i < batch; i++ {
			k := (r-1)*batch + i
			u := int32(k % n)
			rounds[r] = append(rounds[r], graph.Edge{U: u, V: (u + 2 + int32(k/n)) % n})
		}
	}
	ops := make([][]coalesce.Op, len(rounds))
	for r, es := range rounds {
		for _, ed := range es {
			ops[r] = append(ops[r], coalesce.Op{Kind: coalesce.OpInsert, U: ed.U, V: ed.V})
		}
	}

	twin := core.New(n)
	twin.BatchInsert(rounds[0])
	r := 1
	coreAllocs := testing.AllocsPerRun(runs, func() {
		twin.BatchInsert(rounds[r])
		r++
	})

	e, err := New(core.New(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, _, err := e.Apply(ops[0]); err != nil {
		t.Fatal(err)
	}
	r = 1
	applyAllocs := testing.AllocsPerRun(runs, func() {
		res, _, err := e.Apply(ops[r])
		if err != nil || !res[0] || !res[batch-1] {
			t.Fatalf("Apply = %v, %v: want every chord credited", res, err)
		}
		r++
	})

	overhead := applyAllocs - coreAllocs
	t.Logf("64-op Apply: %v allocations, of which the core's BatchInsert %v, pipeline %v",
		applyAllocs, coreAllocs, overhead)
	// Measured 16 (go1.24.0, 2 vCPU, AllocsPerRun at GOMAXPROCS 1); the
	// budget is that plus 25 %.
	const budget = 20
	if overhead > budget {
		t.Fatalf("the epoch pipeline adds %v allocations to a 64-op Apply, budget %v", overhead, budget)
	}
}
