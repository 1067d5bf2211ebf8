package parallel

import "math/bits"

// hash64 is a fixed xorshift-multiply mix (splitmix64 finalizer). The paper's
// semisort assumes a uniformly random hash on keys; splitmix64's avalanche
// behaviour is a standard practical stand-in.
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash64 exposes the package's mixing function for callers that need a
// consistent hash (e.g. the parallel dictionary).
func Hash64(x uint64) uint64 { return hash64(x) }

// GroupBy semisorts the inputs by key (Gu, Shun, Sun and Blelloch, SPAA '15):
// it partitions the indices [0, len(keys)) into groups of equal key and
// returns them flat. Group g is order[start[g]:start[g+1]], its indices in
// ascending input order; len(start) is the group count plus one. Groups are
// in no particular order (semisorted, not sorted). O(n) expected work, and a
// fixed number of allocations whatever the number of groups.
func GroupBy(keys []uint64) (order, start []int) {
	n := len(keys)
	if n == 0 {
		return nil, nil
	}
	// order and start share one allocation; start has room for n groups.
	buf := make([]int, 2*n+1)
	order, start = buf[:0:n], buf[n:n]
	if n <= 24 {
		// Small-batch fast path: a quadratic scan beats allocating the
		// bucket arrays (batch operations issue many tiny groupings).
		var used uint32
		for i := 0; i < n; i++ {
			if used&(1<<uint(i)) != 0 {
				continue
			}
			start = append(start, len(order))
			order = append(order, i)
			for j := i + 1; j < n; j++ {
				if used&(1<<uint(j)) == 0 && keys[j] == keys[i] {
					order = append(order, j)
					used |= 1 << uint(j)
				}
			}
		}
		return order, append(start, n)
	}
	// Bucket count: next power of two >= 2n for short collision chains.
	// scratch holds each key's bucket, then the bucket offsets, then the
	// indices scattered by bucket.
	nb := 1 << bits.Len(uint(2*n-1))
	mask := uint64(nb - 1)
	scratch := make([]int, 2*n+nb+1)
	bkt, off, byBucket := scratch[:n], scratch[n:n+nb+1], scratch[n+nb+1:]
	For(n, 4096, func(i int) { bkt[i] = int(hash64(keys[i]) & mask) })
	for _, b := range bkt {
		off[b+1]++
	}
	for b := 0; b < nb; b++ {
		off[b+1] += off[b]
	}
	// A stable scatter: afterwards off[b] is where bucket b+1 begins, and
	// each bucket lists its indices in ascending order.
	for i, b := range bkt {
		byBucket[off[b]] = i
		off[b]++
	}
	// Within each bucket, split by exact key (buckets are tiny in
	// expectation, so a quadratic-in-bucket pass is linear overall).
	lo := 0
	for b := 0; b < nb; b++ {
		hi := off[b]
		for i := lo; i < hi; i++ {
			idx := byBucket[i]
			if idx < 0 {
				continue
			}
			k := keys[idx]
			start = append(start, len(order))
			order = append(order, idx)
			for j := i + 1; j < hi; j++ {
				if idx2 := byBucket[j]; idx2 >= 0 && keys[idx2] == k {
					order = append(order, idx2)
					byBucket[j] = -1
				}
			}
		}
		lo = hi
	}
	return order, append(start, n)
}
