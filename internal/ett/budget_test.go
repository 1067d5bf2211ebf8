package ett

import "testing"

// TestLinkCutAllocs pins a warmed Link+Cut cycle between two non-trivial
// trees at zero allocations: the two arc elements come from and return to
// the treap node pool, and the arc index reuses its map slots. Measured 0;
// it was 2 while each arc element boxed an {from, to} payload into an
// interface. (A cut that isolates a vertex drops its loop element, so
// relinking that vertex allocates one node; neither side is isolated here.)
func TestLinkCutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	f := New(64)
	for v := int32(1); v < 64; v++ {
		if v != 32 {
			f.Link(v-1, v)
		}
	}
	f.Link(31, 40)
	f.Cut(31, 40)
	allocs := testing.AllocsPerRun(100, func() {
		f.Link(31, 40)
		f.Cut(31, 40)
	})
	if allocs != 0 {
		t.Fatalf("Link+Cut makes %v allocations, budget 0", allocs)
	}
}
