package parallel

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndicesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 5000, 123457} {
		hits := make([]int32, n)
		For(n, 13, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d index %d hit %d times", n, i, h)
			}
		}
	}
}

func TestForRangePartition(t *testing.T) {
	n := 10000
	var covered [10000]int32
	ForRange(n, 37, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad block [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i := 0; i < n; i++ {
		if covered[i] != 1 {
			t.Fatalf("index %d covered %d times", i, covered[i])
		}
	}
}

func TestScanMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, 2048, 2049, 100000} {
		src := make([]int, n)
		for i := range src {
			src[i] = rng.Intn(100)
		}
		out, total := Scan(src)
		acc := 0
		for i := 0; i < n; i++ {
			if out[i] != acc {
				t.Fatalf("n=%d Scan[%d]=%d want %d", n, i, out[i], acc)
			}
			acc += src[i]
		}
		if total != acc {
			t.Fatalf("n=%d total=%d want %d", n, total, acc)
		}
	}
}

func TestScanIntoAliased(t *testing.T) {
	src := []int{1, 2, 3, 4, 5}
	total := ScanInto(src, src)
	want := []int{0, 1, 3, 6, 10}
	if total != 15 {
		t.Fatalf("total = %d, want 15", total)
	}
	for i := range want {
		if src[i] != want[i] {
			t.Fatalf("aliased scan[%d] = %d, want %d", i, src[i], want[i])
		}
	}
}

func TestPackPreservesOrder(t *testing.T) {
	src := []int{10, 11, 12, 13, 14, 15}
	flags := []bool{true, false, true, false, false, true}
	got := Pack(src, flags)
	want := []int{10, 12, 15}
	if len(got) != len(want) {
		t.Fatalf("Pack len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pack[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFilter(t *testing.T) {
	src := make([]int, 1000)
	for i := range src {
		src[i] = i
	}
	evens := Filter(src, func(x int) bool { return x%2 == 0 })
	if len(evens) != 500 {
		t.Fatalf("Filter kept %d, want 500", len(evens))
	}
	for i, v := range evens {
		if v != 2*i {
			t.Fatalf("Filter[%d] = %d, want %d", i, v, 2*i)
		}
	}
}

func TestSetWorkersRestores(t *testing.T) {
	old := SetWorkers(1)
	defer SetWorkers(old)
	if Workers() != 1 {
		t.Fatalf("Workers = %d, want 1", Workers())
	}
	// Primitives still correct with one worker.
	if _, total := Scan(make([]int, 5000)); total != 0 {
		t.Fatalf("Scan under P=1 total = %d", total)
	}
	if got := Map([]int{1, 2, 3}, func(x int) int { return x + 1 }); got[0] != 2 || got[2] != 4 {
		t.Fatalf("Map under P=1 = %v", got)
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("Workers after reset = %d", Workers())
	}
}

func TestGroupByCollectsEqualKeys(t *testing.T) {
	keys := []uint64{5, 7, 5, 5, 9, 7}
	got := checkGroups(t, keys)
	if len(got) != 3 {
		t.Fatalf("got %d groups, want 3", len(got))
	}
	if g := got[5]; len(g) != 3 || g[0] != 0 || g[1] != 2 || g[2] != 3 {
		t.Fatalf("group for key 5 wrong: %v", g)
	}
}

func TestGroupByEmpty(t *testing.T) {
	if order, start := GroupBy(nil); order != nil || start != nil {
		t.Fatalf("GroupBy(nil) = %v, %v, want nil, nil", order, start)
	}
}

func TestGroupByPropertyPartition(t *testing.T) {
	f := func(raw []uint16) bool {
		keys := make([]uint64, len(raw))
		for i, r := range raw {
			keys[i] = uint64(r % 50)
		}
		order, start := GroupBy(keys)
		return groupingError(keys, order, start) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupByParallelLarge(t *testing.T) {
	// Large enough that the hashing phase runs in parallel.
	n := 1 << 15
	keys := make([]uint64, n)
	rng := rand.New(rand.NewSource(42))
	for i := range keys {
		keys[i] = uint64(rng.Intn(1000))
	}
	checkGroups(t, keys)
}

func TestHash64Deterministic(t *testing.T) {
	if Hash64(12345) != Hash64(12345) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(1) == Hash64(2) {
		t.Fatal("suspicious collision on tiny inputs")
	}
}
