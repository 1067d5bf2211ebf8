package spanning

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/unionfind"
)

func TestForestEmpty(t *testing.T) {
	r := Forest(nil, nil)
	if len(r.Chosen) != 0 || len(r.Verts) != 0 {
		t.Fatal("empty input should produce empty result")
	}
}

func TestForestPath(t *testing.T) {
	us := []uint64{1, 2, 3}
	vs := []uint64{2, 3, 4}
	r := Forest(us, vs)
	chosen := 0
	for _, c := range r.Chosen {
		if c {
			chosen++
		}
	}
	if chosen != 3 {
		t.Fatalf("path of 3 edges: chose %d, want 3", chosen)
	}
	if r.Label[1] != r.Label[4] {
		t.Fatal("endpoints of path not in one component")
	}
}

func TestForestCycleDropsOneEdge(t *testing.T) {
	us := []uint64{1, 2, 3}
	vs := []uint64{2, 3, 1}
	r := Forest(us, vs)
	chosen := 0
	for _, c := range r.Chosen {
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
	for _, c := range r.Chosen {
		if c {
			chosen++
		}
	}
	if chosen != 1 {
		t.Fatalf("parallel edges + loop: chose %d, want 1", chosen)
	}
	if r.Label[1] != r.Label[2] || r.Label[1] == r.Label[5] {
		t.Fatal("labels wrong")
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
		// Sequential oracle over dense labels.
		uf := unionfind.New(len(r.Verts))
		id := make(map[uint64]int32)
		for i, v := range r.Verts {
			id[v] = int32(i)
		}
		chosen := 0
		for i := 0; i < k; i++ {
			if uf.Union(id[us[i]], id[vs[i]]) {
				chosen++
			}
		}
		got := 0
		for _, c := range r.Chosen {
			if c {
				got++
			}
		}
		if got != chosen {
			t.Fatalf("trial %d: chose %d edges, oracle says forest size %d", trial, got, chosen)
		}
		// Labels must agree with oracle connectivity.
		for i := 0; i < k; i++ {
			same := uf.Connected(id[us[i]], id[vs[i]])
			if same != (r.Label[us[i]] == r.Label[vs[i]]) {
				t.Fatalf("trial %d: label disagreement on edge %d", trial, i)
			}
		}
		// Chosen edges must themselves form a forest (acyclic).
		check := unionfind.New(len(r.Verts))
		for i := 0; i < k; i++ {
			if r.Chosen[i] && !check.Union(id[us[i]], id[vs[i]]) {
				t.Fatalf("trial %d: chosen edges contain a cycle", trial)
			}
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
		r := Forest(us, vs)
		// Property 1: chosen edges acyclic.
		id := make(map[uint64]int32)
		for i, v := range r.Verts {
			id[v] = int32(i)
		}
		uf := unionfind.New(len(r.Verts))
		for i := 0; i < k; i++ {
			if r.Chosen[i] {
				if us[i] == vs[i] {
					return false // self-loop chosen
				}
				if !uf.Union(id[us[i]], id[vs[i]]) {
					return false // cycle
				}
			}
		}
		// Property 2: maximality — every unchosen edge is within a component.
		for i := 0; i < k; i++ {
			if !r.Chosen[i] && us[i] != vs[i] && !uf.Connected(id[us[i]], id[vs[i]]) {
				return false
			}
		}
		return true
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
