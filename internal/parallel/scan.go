package parallel

// Scan computes the exclusive prefix sums of src under +, writing them into a
// new slice and returning the total. This is the classic two-pass Blelloch
// scan: per-block sums, a sequential scan over the (few) block sums, then a
// per-block local scan seeded with the block offset. O(n) work, O(lg n) depth
// for bounded block counts.
func Scan(src []int) ([]int, int) {
	n := len(src)
	out := make([]int, n)
	total := ScanInto(src, out)
	return out, total
}

// ScanInto is Scan writing into a caller-provided slice (src and dst may
// alias). Returns the total sum.
func ScanInto(src, dst []int) int {
	n := len(src)
	if n == 0 {
		return 0
	}
	p := Workers()
	grain := (n + p - 1) / p
	if grain < 2048 {
		grain = 2048
	}
	blocks := (n + grain - 1) / grain
	if blocks == 1 {
		acc := 0
		for i := 0; i < n; i++ {
			v := src[i]
			dst[i] = acc
			acc += v
		}
		return acc
	}
	sums := make([]int, blocks)
	ForRange(n, grain, func(lo, hi int) {
		acc := 0
		for i := lo; i < hi; i++ {
			acc += src[i]
		}
		sums[lo/grain] = acc
	})
	total := 0
	for b := 0; b < blocks; b++ {
		s := sums[b]
		sums[b] = total
		total += s
	}
	ForRange(n, grain, func(lo, hi int) {
		acc := sums[lo/grain]
		for i := lo; i < hi; i++ {
			v := src[i]
			dst[i] = acc
			acc += v
		}
	})
	return total
}

// Pack returns the elements of src whose flag is true, preserving order.
// O(n) work, O(lg n) depth.
func Pack[T any](src []T, flags []bool) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	ind := make([]int, n)
	For(n, 4096, func(i int) {
		if flags[i] {
			ind[i] = 1
		}
	})
	offs, total := Scan(ind)
	out := make([]T, total)
	For(n, 4096, func(i int) {
		if flags[i] {
			out[offs[i]] = src[i]
		}
	})
	return out
}

// Filter returns the elements of src satisfying pred, preserving order.
func Filter[T any](src []T, pred func(T) bool) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	flags := make([]bool, n)
	For(n, 2048, func(i int) { flags[i] = pred(src[i]) })
	return Pack(src, flags)
}

// Map applies f to each element of src in parallel.
func Map[T, U any](src []T, f func(T) U) []U {
	out := make([]U, len(src))
	For(len(src), 0, func(i int) { out[i] = f(src[i]) })
	return out
}
