package spanning

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/unionfind"
)

// forestError checks the chosen flags against a sequential union-find
// oracle: the chosen edges form a forest, and every unchosen edge is a
// self-loop or joins vertices that the chosen edges already connect. It
// returns "" when both hold.
func forestError(us, vs []uint64, chosen []bool) string {
	id := make(map[uint64]int32)
	dense := func(x uint64) int32 {
		if _, ok := id[x]; !ok {
			id[x] = int32(len(id))
		}
		return id[x]
	}
	a := make([]int32, len(us))
	b := make([]int32, len(us))
	for i := range us {
		a[i], b[i] = dense(us[i]), dense(vs[i])
	}
	uf := unionfind.New(len(id))
	for i := range us {
		if chosen[i] && !uf.Union(a[i], b[i]) {
			return fmt.Sprintf("chosen edge %d (%d, %d) closes a cycle or is a self-loop", i, us[i], vs[i])
		}
	}
	for i := range us {
		if !chosen[i] && !uf.Connected(a[i], b[i]) {
			return fmt.Sprintf("unchosen edge %d (%d, %d) joins two trees", i, us[i], vs[i])
		}
	}
	return ""
}

func TestForestEmpty(t *testing.T) {
	if r := Forest(nil, nil); len(r) != 0 {
		t.Fatal("empty input should produce empty result")
	}
}

func TestForestPath(t *testing.T) {
	us := []uint64{1, 2, 3}
	vs := []uint64{2, 3, 4}
	r := Forest(us, vs)
	chosen := 0
	for _, c := range r {
		if c {
			chosen++
		}
	}
	if chosen != 3 {
		t.Fatalf("path of 3 edges: chose %d, want 3", chosen)
	}
	if err := forestError(us, vs, r); err != "" {
		t.Fatal(err)
	}
}

func TestForestCycleDropsOneEdge(t *testing.T) {
	us := []uint64{1, 2, 3}
	vs := []uint64{2, 3, 1}
	r := Forest(us, vs)
	chosen := 0
	for _, c := range r {
		if c {
			chosen++
		}
	}
	if chosen != 2 {
		t.Fatalf("triangle: chose %d edges, want 2", chosen)
	}
}

func TestForestParallelEdgesAndLoops(t *testing.T) {
	us := []uint64{1, 1, 1, 5}
	vs := []uint64{2, 2, 2, 5}
	r := Forest(us, vs)
	chosen := 0
	for _, c := range r {
		if c {
			chosen++
		}
	}
	if chosen != 1 {
		t.Fatalf("parallel edges + loop: chose %d, want 1", chosen)
	}
	if r[3] {
		t.Fatal("self-loop chosen")
	}
	if err := forestError(us, vs, r); err != "" {
		t.Fatal(err)
	}
}

func TestForestMatchesSequentialComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(500)
		n := 1 + rng.Intn(100)
		us := make([]uint64, k)
		vs := make([]uint64, k)
		for i := 0; i < k; i++ {
			us[i] = uint64(rng.Intn(n)) * 7 // sparse ids
			vs[i] = uint64(rng.Intn(n)) * 7
		}
		r := Forest(us, vs)
		// Sequential oracle: the forest size is n minus the component
		// count, whichever maximal forest is chosen (ids are multiples of
		// 7 below 7n).
		uf := unionfind.New(7 * n)
		chosen := 0
		for i := 0; i < k; i++ {
			if uf.Union(int32(us[i]), int32(vs[i])) {
				chosen++
			}
		}
		got := 0
		for _, c := range r {
			if c {
				got++
			}
		}
		if got != chosen {
			t.Fatalf("trial %d: chose %d edges, oracle says forest size %d", trial, got, chosen)
		}
		if err := forestError(us, vs, r); err != "" {
			t.Fatalf("trial %d: %s", trial, err)
		}
	}
}

func TestQuickForestProperties(t *testing.T) {
	f := func(pairs []uint16) bool {
		if len(pairs) < 2 {
			return true
		}
		k := len(pairs) / 2
		us := make([]uint64, k)
		vs := make([]uint64, k)
		for i := 0; i < k; i++ {
			us[i] = uint64(pairs[2*i] % 40)
			vs[i] = uint64(pairs[2*i+1] % 40)
		}
		// A forest (no cycle, no self-loop) that is maximal: every unchosen
		// edge lies within a tree.
		return forestError(us, vs, Forest(us, vs)) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialUF(t *testing.T) {
	u := New5()
	_ = u
}

// New5 exercises the sequential union-find directly.
func New5() *unionfind.UF {
	u := unionfind.New(5)
	if u.Components() != 5 {
		panic("components != 5")
	}
	u.Union(0, 1)
	u.Union(1, 2)
	if !u.Connected(0, 2) || u.Connected(0, 3) {
		panic("sequential UF wrong")
	}
	if u.Union(0, 2) {
		panic("re-union should return false")
	}
	if u.Components() != 3 {
		panic("components != 3")
	}
	return u
}

func TestConcurrentUFStress(t *testing.T) {
	n := 1 << 12
	c := unionfind.NewConcurrent(n)
	// Union a perfect matching then chains, concurrently via spanning.Forest
	// is covered elsewhere; here hammer Union directly.
	for i := 0; i < n-1; i += 2 {
		c.Union(int32(i), int32(i+1))
	}
	for i := 0; i < n; i += 2 {
		if !c.SameSet(int32(i), int32(i+1)) {
			t.Fatalf("pair %d not merged", i)
		}
	}
	if c.SameSet(0, 2) {
		t.Fatal("unexpected merge")
	}
}
