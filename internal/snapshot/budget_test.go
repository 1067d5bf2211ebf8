package snapshot

import (
	"runtime"
	"testing"
)

// TestPublishByteBudget pins the bytes one partition-changing Publish
// allocates for a small merge at n = 2¹⁶: two singletons join, Publish
// walks the 2-vertex component and publishes a fresh labelling. Nearly all
// of it is that labelling, a copy of 4n bytes (262 144), which Publish
// makes because readers may hold the previous one indefinitely; the rest
// is the dedup map, the walk's vertex list, the Labels, the Diff and its
// Changed list. Measured 262 288 bytes per Publish on go1.24.0 (the least
// over 16 merges, which leaves out what another goroutine of the test
// binary allocates meanwhile); the budget is that plus 25 %, so a second
// label-sized buffer fails it. On durable churn Publish is the largest
// allocator (ROADMAP item 1b).
func TestPublishByteBudget(t *testing.T) {
	const n, merges = 1 << 16, 16
	const budget = 327860
	m := newModel(n)
	s := NewStore(n, 0, m)
	least := ^uint64(0)
	for r := int32(0); r < merges; r++ {
		u, v := 2*r, 2*r+1
		s.Prepare([]int32{u, v})
		m.edges[key(u, v)] = true
		m.refresh()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := s.Publish([]int32{u, v})
		runtime.ReadMemStats(&after)
		if d == nil || len(d.Changed) != 1 {
			t.Fatalf("merge %d: Publish returned %v, want one changed label", r, d)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("one partition-changing Publish at n = %d allocates %d bytes", n, least)
	if least > budget {
		t.Fatalf("a partition-changing Publish allocates %d bytes, budget %d", least, budget)
	}
}
