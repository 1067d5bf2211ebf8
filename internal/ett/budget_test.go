package ett

import "testing"

// TestLinkCutAllocs pins a warmed Link+Cut cycle between two non-trivial
// trees at zero allocations: the two arc elements come from and return to
// the forest's slab free list, and the arc index reuses its map slots.
// Measured 0; it was 2 while each arc element boxed an {from, to} payload
// into an interface. (A cut that isolates a vertex retires its loop
// element, so relinking that vertex after Reclaim allocates a slot; neither
// side is isolated here.) It runs under -race too: nothing on the path is
// a sync.Pool, whose Puts the race detector drops at random.
func TestLinkCutAllocs(t *testing.T) {
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
