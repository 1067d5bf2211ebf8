package parallel

import (
	"slices"
	"sync/atomic"
	"testing"
)

func TestAutoGrainBounds(t *testing.T) {
	for _, c := range []struct {
		n, p int
	}{{1, 1}, {10, 24}, {1000, 24}, {100000, 24}, {10_000_000, 24}, {100, 1}} {
		g := autoGrain(c.n, c.p)
		if g < MinAutoGrain || g > DefaultGrain {
			t.Fatalf("autoGrain(%d,%d) = %d outside [%d,%d]", c.n, c.p, g, MinAutoGrain, DefaultGrain)
		}
	}
	// Large inputs should reach the cap so blocks stay numerous.
	if g := autoGrain(10_000_000, 4); g != DefaultGrain {
		t.Fatalf("autoGrain huge = %d, want %d", g, DefaultGrain)
	}
}

func TestForSmallInputsRunInline(t *testing.T) {
	// With n below the auto grain floor, the body must execute on the
	// calling goroutine (no spawn): verify by observing sequential order.
	var order []int
	For(100, 0, func(i int) { order = append(order, i) }) // data race iff parallel
	if len(order) != 100 {
		t.Fatalf("ran %d iterations", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

func TestForRangeCounterPathCoversAll(t *testing.T) {
	// Force the shared-counter path: many blocks (> 4P).
	n := 1 << 20
	var sum atomic.Int64
	ForRange(n, 64, func(lo, hi int) {
		s := int64(0)
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		sum.Add(s)
	})
	want := int64(n) * int64(n-1) / 2
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestForExplicitGrainOne(t *testing.T) {
	// Grain 1 with expensive bodies is the per-component pattern; all
	// indices must still run exactly once.
	n := 37
	hits := make([]atomic.Int32, n)
	For(n, 1, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d ran %d times", i, hits[i].Load())
		}
	}
}

func TestGroupBySmallFastPath(t *testing.T) {
	// n <= 24 takes the bitmask scan: groups in order of first occurrence,
	// indices ascending within each.
	keys := []uint64{9, 9, 3, 9, 3, 7}
	order, start := GroupBy(keys)
	want := []int32{0, 1, 3, 2, 4, 5}
	wantStart := []int32{0, 3, 5, 6}
	if !slices.Equal(order, want) || !slices.Equal(start, wantStart) {
		t.Fatalf("GroupBy = %v, %v; want %v, %v", order, start, want, wantStart)
	}
}

func TestGroupByBoundaryAt24(t *testing.T) {
	// Exactly at and just above the fast-path cutoff.
	for _, n := range []int{24, 25} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i % 5)
		}
		if got := checkGroups(t, keys); len(got) != 5 {
			t.Fatalf("n=%d: groups = %d", n, len(got))
		}
	}
}
