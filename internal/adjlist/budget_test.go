package adjlist

import (
	"runtime"
	"testing"

	"repro/internal/graph"
)

// TestRetainedBytesPerVertex bounds the live heap of a store whose every
// vertex holds one record at one level, at n = 2¹⁴ and 17 levels (the
// core's level count at the benchmarks' n = 2¹⁶). Measured 105 bytes per vertex with sparse level cells
// (a 24-byte cell slice header, one 64-byte cell, an 8-byte list array
// and half of the 24-byte Rec), against 945 with a dense 17-level cell
// array allocated on a vertex's first touch; the budget is 160.
func TestRetainedBytesPerVertex(t *testing.T) {
	const n, levels = 1 << 14, 17
	const budget = 160
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := New(n, levels)
	for u := graph.Vertex(0); u < n; u += 2 {
		s.Insert(&Rec{E: graph.Edge{U: u, V: u + 1}, Level: 0})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	runtime.KeepAlive(s)
	t.Logf("%d retained bytes per vertex", per)
	if per > budget {
		t.Fatalf("%d retained bytes per vertex holding one record, budget %d", per, budget)
	}
}
