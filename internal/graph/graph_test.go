package graph

import (
	"testing"
	"testing/quick"
)

func TestCanon(t *testing.T) {
	if (Edge{U: 7, V: 3}).Canon() != (Edge{U: 3, V: 7}) {
		t.Fatal("Canon did not order endpoints")
	}
	if (Edge{U: 3, V: 7}).Canon() != (Edge{U: 3, V: 7}) {
		t.Fatal("Canon changed an ordered edge")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	f := func(u, v int32) bool {
		if u < 0 {
			u = -u
		}
		if v < 0 {
			v = -v
		}
		e := Edge{U: u, V: v}
		return FromKey(e.Key()) == e.Canon()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyOrientationInvariant(t *testing.T) {
	f := func(u, v int32) bool {
		if u < 0 {
			u = -u
		}
		if v < 0 {
			v = -v
		}
		return (Edge{U: u, V: v}).Key() == (Edge{U: v, V: u}).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyDirectedPreservesOrientation(t *testing.T) {
	a := (Edge{U: 1, V: 2}).KeyDirected()
	b := (Edge{U: 2, V: 1}).KeyDirected()
	if a == b {
		t.Fatal("directed keys collide across orientations")
	}
}

func TestOtherAndLoop(t *testing.T) {
	e := Edge{U: 4, V: 9}
	if e.Other(4) != 9 || e.Other(9) != 4 {
		t.Fatal("Other wrong")
	}
	if e.IsLoop() || !(Edge{U: 5, V: 5}).IsLoop() {
		t.Fatal("IsLoop wrong")
	}
}

func TestDedupSmallAndLargePaths(t *testing.T) {
	// Small (<=16): linear path.
	small := []Edge{{U: 1, V: 2}, {U: 2, V: 1}, {U: 3, V: 3}, {U: 4, V: 5}}
	got := Dedup(small)
	if len(got) != 2 || got[0] != (Edge{U: 1, V: 2}) || got[1] != (Edge{U: 4, V: 5}) {
		t.Fatalf("small Dedup = %v", got)
	}
	// Large (>16): map path; same semantics.
	var large []Edge
	for i := 0; i < 30; i++ {
		large = append(large, Edge{U: int32(i % 5), V: int32(i%5) + 1})
	}
	got = Dedup(large)
	if len(got) != 5 {
		t.Fatalf("large Dedup kept %d", len(got))
	}
	// First-occurrence order preserved.
	for i, e := range got {
		if e.U != int32(i) {
			t.Fatalf("order not preserved: %v", got)
		}
	}
}

func TestDedupPropertySetEquality(t *testing.T) {
	f := func(raw []uint8) bool {
		var es []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			es = append(es, Edge{U: int32(raw[i] % 8), V: int32(raw[i+1] % 8)})
		}
		out := Dedup(es)
		// No loops, no duplicates, canonical form.
		seen := map[uint64]bool{}
		for _, e := range out {
			if e.IsLoop() || e.U > e.V || seen[e.Key()] {
				return false
			}
			seen[e.Key()] = true
		}
		// Every non-loop input is represented.
		for _, e := range es {
			if !e.IsLoop() && !seen[e.Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLevels(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := Levels(n); got != want {
			t.Fatalf("Levels(%d) = %d, want %d", n, got, want)
		}
	}
}
