package parallel

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestForRangeRespectsWorkerBound pins the SetWorkers contract: at most
// Workers() loop bodies run concurrently, calling goroutine included. The
// block-count sweep covers the regimes the old implementation split on —
// blocks <= 4p formerly spawned blocks-1 goroutines, up to 4p-1 concurrent
// bodies.
func TestForRangeRespectsWorkerBound(t *testing.T) {
	defer SetWorkers(SetWorkers(0))
	const grain = 8
	for _, p := range []int{1, 2, 3, 4} {
		for _, blocks := range []int{1, 2, p + 1, 3 * p, 4 * p, 8 * p} {
			SetWorkers(p)
			n := blocks * grain
			var cur, peak atomic.Int64
			ForRange(n, grain, func(lo, hi int) {
				c := cur.Add(1)
				for {
					pk := peak.Load()
					if c <= pk || peak.CompareAndSwap(pk, c) {
						break
					}
				}
				// Hold the body open long enough for overlap to be
				// observable; the bound must hold regardless.
				time.Sleep(200 * time.Microsecond)
				cur.Add(-1)
			})
			if got := int(peak.Load()); got > p {
				t.Errorf("p=%d blocks=%d: peak concurrent bodies %d > Workers() %d",
					p, blocks, got, p)
			}
		}
	}
}

// TestForRangeCoversPartition checks every index is visited exactly once and
// that block boundaries sit at multiples of the grain (the contract
// ScanInto's per-block sums rely on).
func TestForRangeCoversPartition(t *testing.T) {
	defer SetWorkers(SetWorkers(0))
	SetWorkers(4)
	const n, grain = 1003, 16
	visited := make([]atomic.Int32, n)
	ForRange(n, grain, func(lo, hi int) {
		if lo%grain != 0 {
			t.Errorf("block lo %d not a multiple of grain %d", lo, grain)
		}
		for i := lo; i < hi; i++ {
			visited[i].Add(1)
		}
	})
	for i := range visited {
		if got := visited[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
}

// groupingError checks GroupBy's flat result against a map oracle built from
// keys: every index appears exactly once, each group holds one key and no two
// groups share one, and indices ascend within each group. It returns "" when
// the result is a correct semisort of keys.
func groupingError(keys []uint64, order, start []int32) string {
	oracle := map[uint64][]int32{}
	for i, k := range keys {
		oracle[k] = append(oracle[k], int32(i))
	}
	if len(keys) == 0 {
		if order != nil || start != nil {
			return "non-nil result for no keys"
		}
		return ""
	}
	if len(order) != len(keys) {
		return fmt.Sprintf("order has %d indices, want %d", len(order), len(keys))
	}
	if len(start) != len(oracle)+1 || start[0] != 0 || start[len(start)-1] != int32(len(keys)) {
		return fmt.Sprintf("start = %v, want %d groups spanning [0, %d)", start, len(oracle), len(keys))
	}
	seen := map[uint64]bool{}
	for g := 0; g+1 < len(start); g++ {
		if start[g] >= start[g+1] {
			return fmt.Sprintf("group %d is empty or inverted: [%d, %d)", g, start[g], start[g+1])
		}
		grp := order[start[g]:start[g+1]]
		k := keys[grp[0]]
		if seen[k] {
			return fmt.Sprintf("key %d appears in two groups", k)
		}
		seen[k] = true
		if !slices.Equal(grp, oracle[k]) {
			return fmt.Sprintf("group of key %d = %v, want %v", k, grp, oracle[k])
		}
	}
	return ""
}

// checkGroups runs GroupBy on keys, fails t unless groupingError accepts the
// result, and returns it as key -> indices.
func checkGroups(t *testing.T, keys []uint64) map[uint64][]int32 {
	t.Helper()
	order, start := GroupBy(keys)
	if msg := groupingError(keys, order, start); msg != "" {
		t.Fatalf("n=%d: %s", len(keys), msg)
	}
	out := make(map[uint64][]int32, len(start))
	for g := 0; g+1 < len(start); g++ {
		grp := order[start[g]:start[g+1]]
		out[keys[grp[0]]] = grp
	}
	return out
}

func randomKeys(seed int64, n, keyRange int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		if rng.Intn(4) == 0 {
			// Occasionally spray wide keys so buckets see both long
			// duplicate chains and singletons.
			keys[i] = rng.Uint64() % uint64(16*keyRange+1)
		} else {
			keys[i] = uint64(rng.Intn(keyRange))
		}
	}
	return keys
}

// FuzzSemisort checks GroupBy against a map oracle on random key multisets.
// Seeds cover the n <= 24 bitmask scan, its boundary and the bucket path at
// sizes up to where hashing runs in parallel; a tiny keyRange makes duplicate
// chains long and bucket collisions frequent.
func FuzzSemisort(f *testing.F) {
	f.Add(int64(1), 0, 1)
	f.Add(int64(2), 7, 2)
	f.Add(int64(3), 24, 3) // bitmask-scan upper boundary
	f.Add(int64(4), 25, 3) // first bucketed size
	f.Add(int64(5), 4096, 7)
	f.Add(int64(6), 1<<14, 50) // hashing runs in parallel
	f.Add(int64(7), 20000, 1)  // single hot key: one maximal bucket chain
	f.Add(int64(8), 20000, 997)
	f.Fuzz(func(t *testing.T, seed int64, n, keyRange int) {
		if n < 0 || n > 1<<16 {
			t.Skip()
		}
		if keyRange <= 0 {
			keyRange = 1
		}
		keys := randomKeys(seed, n, keyRange)
		order, start := GroupBy(keys)
		if msg := groupingError(keys, order, start); msg != "" {
			t.Fatalf("seed=%d n=%d keyRange=%d: %s", seed, n, keyRange, msg)
		}
	})
}

// TestGroupByDifferentialRandom runs the oracle check across a spread of
// sizes without requiring -fuzz (the fuzz target alone only replays its seed
// corpus under plain `go test`).
func TestGroupByDifferentialRandom(t *testing.T) {
	for _, tc := range []struct {
		n, keyRange int
	}{
		{1, 1}, {16, 3}, {24, 2}, {25, 2}, {100, 5}, {1000, 1},
		{1 << 14, 11}, {40000, 3}, {40000, 5000},
	} {
		for seed := int64(0); seed < 3; seed++ {
			checkGroups(t, randomKeys(seed, tc.n, tc.keyRange))
		}
	}
}
