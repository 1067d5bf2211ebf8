package wal

import (
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// TestAppendAllocBudget pins the allocations of AppendRecord for a 64-edge
// record, 32 inserts and 32 deletes of random edges at n = 2^16, in the v2
// codec every fresh log writes. testing.AllocsPerRun runs at GOMAXPROCS 1
// and AppendRecord starts no goroutine, so the count is exact and the same
// under -cpu 1,2.
func TestAppendAllocBudget(t *testing.T) {
	const n = 1 << 16
	l, err := Open(filepath.Join(t.TempDir(), "wal.log"), n)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	es := make([]graph.Edge, 64)
	x := uint32(12345)
	for i := range es {
		x = x*1664525 + 1013904223
		es[i] = graph.Edge{U: graph.Vertex(x >> 16), V: graph.Vertex(x & (n - 1))}
	}
	r := Record{Ins: es[:32], Del: es[32:]}
	got := testing.AllocsPerRun(100, func() {
		r.Seq = l.LastSeq() + 1
		if _, _, err := l.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 1 on go1.24.0 (the frame buffer, presized by RawSize); 1
	// plus 25 % rounds down to 1.
	const budget = 1
	t.Logf("AppendRecord of a 64-edge record: %v allocations (budget %v)", got, budget)
	if got > budget {
		t.Fatalf("AppendRecord of a 64-edge record makes %v allocations, budget %v", got, budget)
	}
}
