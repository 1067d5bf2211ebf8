// Package parallel provides the fork-join work-depth primitives that the
// paper's MT-RAM model assumes: parallel loops, prefix sums, packing and
// semisorting. All primitives are implemented on top of goroutines with
// explicit grain control so that scheduling overhead is amortized against
// useful work (Go offers no fine-grained work stealing, so grain sizes
// substitute for it).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the fan-out of every parallel primitive in this package.
// It defaults to GOMAXPROCS and may be overridden (e.g. by scalability
// benchmarks) via SetWorkers.
var maxWorkers atomic.Int64

func init() {
	maxWorkers.Store(int64(runtime.GOMAXPROCS(0)))
}

// SetWorkers sets the global worker bound used by all parallel primitives and
// returns the previous value. Passing p <= 0 resets to GOMAXPROCS.
func SetWorkers(p int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return int(maxWorkers.Swap(int64(p)))
}

// Workers reports the current worker bound.
func Workers() int { return int(maxWorkers.Load()) }

// DefaultGrain caps the automatic block size used by For when the caller
// passes grain <= 0; MinAutoGrain floors it. The floor matters most: a
// goroutine spawn costs on the order of a microsecond, so blocks of cheap
// loop bodies must hold at least a few hundred iterations or scheduling
// dominates (this library issues many small batch operations per update).
// Callers whose bodies are individually expensive pass an explicit grain.
const (
	DefaultGrain = 2048
	MinAutoGrain = 256
)

func autoGrain(n, p int) int {
	g := n / (4 * p)
	if g < MinAutoGrain {
		g = MinAutoGrain
	}
	if g > DefaultGrain {
		g = DefaultGrain
	}
	return g
}

// For executes body(i) for every i in [0, n) with parallelism bounded by the
// worker count. Iterations are distributed in contiguous blocks of the given
// grain; grain <= 0 selects a grain automatically.
func For(n int, grain int, body func(i int)) {
	ForRange(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange executes body(lo, hi) over a partition of [0, n) into contiguous
// blocks, in parallel. This is the primitive behind For; use it directly when
// the body can share per-block state.
//
// Two contracts callers rely on:
//   - Block boundaries are deterministic given (n, grain): block b covers
//     [b*grain, min(n, (b+1)*grain)), so lo is always a multiple of grain
//     and lo/grain indexes per-block state uniquely — even if SetWorkers
//     changes concurrently.
//   - At most Workers() (as read on entry) bodies run concurrently, the
//     calling goroutine included.
func ForRange(n int, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := Workers()
	if grain <= 0 {
		grain = autoGrain(n, p)
	}
	if p <= 1 || n <= grain {
		body(0, n)
		return
	}
	// A shared counter feeds blocks to at most p workers (the calling
	// goroutine is one of them), so peak concurrent bodies never exceed the
	// SetWorkers bound and idle workers steal remaining blocks — an
	// approximation of work stealing for irregular bodies.
	blocks := (n + grain - 1) / grain
	workers := p
	if workers > blocks {
		workers = blocks
	}
	var next atomic.Int64
	run := func() {
		for {
			b := int(next.Add(1)) - 1
			if b >= blocks {
				return
			}
			lo := b * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}
