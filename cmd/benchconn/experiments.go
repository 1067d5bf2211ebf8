package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	conn "repro"
	"repro/client"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/ett"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/hdt"
	"repro/internal/parallel"
	"repro/internal/server"
	"repro/internal/skiplist"
	"repro/internal/static"
	"repro/internal/treap"
	"repro/internal/unionfind"
)

// timeIt runs f once and returns the wall-clock duration.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// nsPer formats a per-item cost.
func nsPer(d time.Duration, items int) string {
	if items == 0 {
		return "-"
	}
	return fmt.Sprintf("%8.0f", float64(d.Nanoseconds())/float64(items))
}

// buildConn loads a Conn with the given edges in large batches.
func buildConn(n int, es []graph.Edge, alg core.Algorithm) *core.Conn {
	c := core.New(n, core.WithAlgorithm(alg))
	for _, b := range graphgen.Batches(es, 1<<16) {
		c.BatchInsert(b)
	}
	return c
}

// ---------------------------------------------------------------- E1

func runE1(cfg config) {
	n := cfg.size(1<<18, 1<<14)
	header("e1", "batch connectivity queries", "per-query cost falls as k grows: O(k lg(1+n/k)) total  [Thm 3]")
	es := graphgen.RandomSpanningTree(n, cfg.seed)
	c := buildConn(n, es, core.SearchInterleaved)
	fmt.Printf("n=%d (random spanning tree)\n", n)
	fmt.Printf("%10s %12s %10s\n", "k", "total", "ns/query")
	for k := 1; k <= n; k *= 8 {
		qs := graphgen.QueryBatch(n, k, cfg.seed+int64(k))
		reps := 1
		if k < 4096 {
			reps = 4096 / k // average tiny batches over repetitions
		}
		d := timeIt(func() {
			for r := 0; r < reps; r++ {
				c.BatchConnected(qs)
			}
		})
		fmt.Printf("%10d %12v %10s\n", k, (d / time.Duration(reps)).Round(time.Microsecond), nsPer(d, k*reps))
	}
}

// ---------------------------------------------------------------- E2

func runE2(cfg config) {
	n := cfg.size(1<<17, 1<<13)
	m := n
	header("e2", "batch insertions", "per-edge insert cost falls as k grows: O(k lg(1+n/k)) total  [Thm 4]")
	fmt.Printf("n=%d, inserting m=%d random edges in batches of k\n", n, m)
	fmt.Printf("%10s %12s %10s\n", "k", "total", "ns/edge")
	for _, k := range []int{16, 128, 1024, 8192, 65536} {
		if k > m {
			break
		}
		es := graphgen.RandomGraph(n, m, cfg.seed)
		c := core.New(n)
		batches := graphgen.Batches(es, k)
		d := timeIt(func() {
			for _, b := range batches {
				c.BatchInsert(b)
			}
		})
		fmt.Printf("%10d %12v %10s\n", k, d.Round(time.Millisecond), nsPer(d, m))
	}
}

// ---------------------------------------------------------------- E3

func runE3(cfg config) {
	n := cfg.size(1<<15, 1<<12)
	m := 4 * n
	header("e3", "batch deletions vs average batch size Δ",
		"amortized work/edge O(lg n · lg(1+n/Δ)): cost falls as Δ grows  [Thm 9, headline]")
	fmt.Printf("n=%d, m=%d random edges; delete ALL edges in batches of Δ\n", n, m)
	fmt.Printf("%10s %12s %10s %12s %12s %12s\n", "Δ", "total", "ns/edge", "pushdowns", "treepushes", "replaced")
	for _, delta := range []int{1, 8, 64, 512, 4096, 32768} {
		if delta > m {
			break
		}
		es := graphgen.RandomGraph(n, m, cfg.seed)
		c := buildConn(n, es, core.SearchInterleaved)
		graphgen.Shuffle(es, cfg.seed+int64(delta))
		batches := graphgen.Batches(es, delta)
		before := c.Stats()
		d := timeIt(func() {
			for _, b := range batches {
				c.BatchDelete(b)
			}
		})
		after := c.Stats()
		fmt.Printf("%10d %12v %10s %12d %12d %12d\n", delta, d.Round(time.Millisecond),
			nsPer(d, m), after.Pushdowns-before.Pushdowns, after.TreePushes-before.TreePushes,
			after.Replaced-before.Replaced)
	}
}

// ---------------------------------------------------------------- E4

func runE4(cfg config) {
	n := cfg.size(1<<14, 1<<11)
	m := 4 * n
	header("e4", "parallel batch-dynamic vs sequential HDT",
		"work-efficient w.r.t. HDT; asymptotically faster for large batches  [Thm 6/9]")
	fmt.Printf("n=%d, m=%d; delete all edges in batches of Δ (HDT processes them one at a time)\n", n, m)
	fmt.Printf("%10s %14s %14s %10s\n", "Δ", "batch-dynamic", "HDT", "speedup")
	for _, delta := range []int{1, 64, 1024, 16384} {
		if delta > m {
			break
		}
		es := graphgen.RandomGraph(n, m, cfg.seed)
		c := buildConn(n, es, core.SearchInterleaved)
		h := hdt.New(n)
		for _, e := range es {
			h.Insert(e.U, e.V)
		}
		graphgen.Shuffle(es, cfg.seed+int64(delta))
		batches := graphgen.Batches(es, delta)
		dDyn := timeIt(func() {
			for _, b := range batches {
				c.BatchDelete(b)
			}
		})
		dHDT := timeIt(func() {
			for _, e := range es {
				h.Delete(e.U, e.V)
			}
		})
		fmt.Printf("%10d %14v %14v %9.2fx\n", delta,
			dDyn.Round(time.Millisecond), dHDT.Round(time.Millisecond),
			float64(dHDT)/float64(dDyn))
	}
}

// ---------------------------------------------------------------- E5

func runE5(cfg config) {
	n := cfg.size(1<<15, 1<<12)
	m := 4 * n
	delta := 16384
	if delta > m {
		delta = m
	}
	header("e5", "speedup vs worker count P",
		"polylog depth ⇒ update throughput scales with workers")
	fmt.Printf("n=%d, m=%d, Δ=%d; delete all edges per worker setting\n", n, m, delta)
	fmt.Printf("%10s %12s %10s\n", "P", "total", "speedup")
	var base time.Duration
	for _, p := range []int{1, 2, 4, 8, 16, 24} {
		es := graphgen.RandomGraph(n, m, cfg.seed)
		c := buildConn(n, es, core.SearchInterleaved)
		graphgen.Shuffle(es, cfg.seed)
		batches := graphgen.Batches(es, delta)
		old := parallel.SetWorkers(p)
		d := timeIt(func() {
			for _, b := range batches {
				c.BatchDelete(b)
			}
		})
		parallel.SetWorkers(old)
		if p == 1 {
			base = d
		}
		fmt.Printf("%10d %12v %9.2fx\n", p, d.Round(time.Millisecond), float64(base)/float64(d))
	}
}

// ---------------------------------------------------------------- E6

func runE6(cfg config) {
	n := cfg.size(1<<17, 1<<13)
	header("e6", "batch-parallel Euler-tour-tree substrate",
		"k links / cuts / queries in O(k lg(1+n/k)) work  [Thm 2]")
	fmt.Printf("n=%d; per-op cost for batch links, cuts, connectivity queries\n", n)
	fmt.Printf("%10s %10s %10s %10s\n", "k", "link", "cut", "query")
	tree := graphgen.RandomSpanningTree(n, cfg.seed)
	for _, k := range []int{64, 1024, 16384, n / 4} {
		if k > n-1 {
			break
		}
		f := ett.New(n)
		f.BatchLink(tree[:n-1-k]) // leave k links to time
		rest := tree[n-1-k:]
		dLink := timeIt(func() { f.BatchLink(rest) })
		qs := graphgen.QueryBatch(n, k, cfg.seed)
		dQuery := timeIt(func() { f.BatchConnected(qs) })
		dCut := timeIt(func() { f.BatchCut(rest) })
		fmt.Printf("%10d %10s %10s %10s\n", k,
			nsPer(dLink, k), nsPer(dCut, k), nsPer(dQuery, k))
	}
}

// ---------------------------------------------------------------- E7

func runE7(cfg config) {
	n := cfg.size(1<<14, 1<<11)
	header("e7", "ablation: Algorithm 4 (simple) vs Algorithm 5 (interleaved)",
		"interleaved needs O(lg n) oracle rounds per level vs O(lg² n); fewer rounds, less re-examination")
	// Shatter-heavy workload: star + backbone path, delete all spokes.
	spokes := graphgen.Star(n)
	backbone := graphgen.RandomGraph(n, 2*n, cfg.seed)
	fmt.Printf("n=%d; star shatter + %d backbone edges; delete all %d spokes in one batch\n",
		n, len(backbone), len(spokes))
	fmt.Printf("%14s %12s %10s %10s %12s\n", "algorithm", "total", "rounds", "phases", "examined")
	for _, alg := range []struct {
		name string
		a    core.Algorithm
	}{{"simple", core.SearchSimple}, {"interleaved", core.SearchInterleaved}} {
		c := core.New(n, core.WithAlgorithm(alg.a))
		c.BatchInsert(spokes)
		c.BatchInsert(backbone)
		before := c.Stats()
		d := timeIt(func() { c.BatchDelete(spokes) })
		s := c.Stats()
		fmt.Printf("%14s %12v %10d %10d %12d\n", alg.name, d.Round(time.Millisecond),
			s.Rounds-before.Rounds, s.Phases-before.Phases, s.EdgesExamined-before.EdgesExamined)
	}
}

// ---------------------------------------------------------------- E8

func runE8(cfg config) {
	n := cfg.size(1<<16, 1<<13)
	m := 16 * n
	header("e8", "batch-dynamic vs static recompute",
		"static costs O(m+n) per batch regardless of Δ; dynamic wins for small batches  [§1]")
	fmt.Printf("n=%d, m=%d; per-batch cost of delete+query, batch size sweep\n", n, m)
	fmt.Printf("%10s %14s %14s %10s\n", "Δ", "dynamic", "static", "dyn/stat")
	for _, delta := range []int{1, 8, 64, 512, 4096, 32768} {
		rounds := 6
		// Each round deletes a fresh slice of delta edges; stop once the
		// sweep would run past the edge set (quick mode shrinks m).
		if rounds*delta > m {
			break
		}
		es := graphgen.RandomGraph(n, m, cfg.seed)
		c := buildConn(n, es, core.SearchInterleaved)
		st := static.New(n)
		st.BatchInsert(es)
		st.BatchConnected(graphgen.QueryBatch(n, 1, cfg.seed)) // settle
		qs := graphgen.QueryBatch(n, 256, cfg.seed)
		var dDyn, dStat time.Duration
		for r := 0; r < rounds; r++ {
			batch := es[r*delta : (r+1)*delta]
			dDyn += timeIt(func() {
				c.BatchDelete(batch)
				c.BatchConnected(qs)
			})
			dStat += timeIt(func() {
				st.BatchDelete(batch)
				st.BatchConnected(qs)
			})
		}
		fmt.Printf("%10d %14v %14v %9.2fx\n", delta,
			(dDyn / time.Duration(rounds)).Round(time.Microsecond),
			(dStat / time.Duration(rounds)).Round(time.Microsecond),
			float64(dDyn)/float64(dStat))
	}
}

// ---------------------------------------------------------------- E9

func runE9(cfg config) {
	n := cfg.size(1<<17, 1<<13)
	m := 2 * n
	header("e9", "insertion-only stream vs union-find baseline",
		"incremental union-find (Simsiri et al.) is the right tool when nothing is deleted; context for the fully-dynamic overhead")
	fmt.Printf("n=%d, m=%d random insertions in batches of 8192\n", n, m)
	es := graphgen.RandomGraph(n, m, cfg.seed)
	batches := graphgen.Batches(es, 8192)
	c := core.New(n)
	dCore := timeIt(func() {
		for _, b := range batches {
			c.BatchInsert(b)
		}
	})
	uf := unionfind.New(n)
	dUF := timeIt(func() {
		for _, e := range es {
			uf.Union(e.U, e.V)
		}
	})
	fmt.Printf("%18s %12s %10s\n", "structure", "total", "ns/edge")
	fmt.Printf("%18s %12v %10s\n", "batch-dynamic", dCore.Round(time.Millisecond), nsPer(dCore, m))
	fmt.Printf("%18s %12v %10s\n", "union-find", dUF.Round(time.Millisecond), nsPer(dUF, m))
	fmt.Printf("(union-find cannot delete; the gap is the price of full dynamism)\n")
}

// ---------------------------------------------------------------- E10

func runE10(cfg config) {
	n := cfg.size(1<<14, 1<<11)
	m := 4 * n
	header("e10", "level dynamics",
		"every edge descends ≤ lg n levels: total pushdowns bounded by m·lg n  [amortization]")
	es := graphgen.RandomGraph(n, m, cfg.seed)
	c := buildConn(n, es, core.SearchInterleaved)
	graphgen.Shuffle(es, cfg.seed)
	// Delete half the edges in small batches to force deep searches.
	for _, b := range graphgen.Batches(es[:m/2], 32) {
		c.BatchDelete(b)
	}
	s := c.Stats()
	lgn := 0
	for v := n - 1; v > 0; v >>= 1 {
		lgn++
	}
	bound := int64(m) * int64(lgn)
	fmt.Printf("n=%d, m=%d, deleted %d edges in batches of 32\n", n, m, m/2)
	fmt.Printf("non-tree pushdowns: %d, tree pushdowns: %d, bound m·lg n = %d (%.1f%% used)\n",
		s.Pushdowns, s.TreePushes, bound,
		100*float64(s.Pushdowns+s.TreePushes)/float64(bound))
	fmt.Printf("replacements: %d, search rounds: %d, level searches: %d\n",
		s.Replaced, s.Rounds, s.LevelSearches)
}

// ---------------------------------------------------------------- E11

func runE11(cfg config) {
	n := cfg.size(1<<17, 1<<13)
	ops := n / 4
	header("e11", "sequence substrate ablation: treap vs skip list",
		"both give O(lg n) expected split/join/rank; the paper uses the skip list, this library's ETT uses the treap")
	fmt.Printf("n=%d elements, %d random rotate (split+join+join) operations\n", n, ops)
	rng := func(seed int64) func() int64 {
		s := uint64(seed)
		return func() int64 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return int64(s % uint64(n))
		}
	}
	// Treap.
	ts := treap.NewSlab(n)
	var troot int32
	tnodes := make([]int32, n)
	for i := 0; i < n; i++ {
		tnodes[i] = ts.NewNode(treap.Value{Cnt: 1}, int32(i))
		troot = ts.Join(troot, tnodes[i])
	}
	next := rng(cfg.seed)
	dTreap := timeIt(func() {
		for i := 0; i < ops; i++ {
			x := tnodes[next()]
			a, b := ts.SplitBefore(x)
			troot = ts.Join(b, a)
		}
	})
	// Skip list.
	sl := skiplist.NewList()
	snodes := make([]*skiplist.Node, n)
	for i := 0; i < n; i++ {
		snodes[i] = skiplist.NewNode(skiplist.Value{Cnt: 1}, i)
		skiplist.Append(sl, snodes[i])
	}
	next = rng(cfg.seed)
	dSkip := timeIt(func() {
		for i := 0; i < ops; i++ {
			x := snodes[next()]
			a, b := skiplist.SplitBefore(x)
			nl := skiplist.NewList()
			skiplist.Join(nl, b)
			skiplist.Join(nl, a)
			sl = nl
		}
	})
	// Rank queries.
	next = rng(cfg.seed + 1)
	dTreapIdx := timeIt(func() {
		for i := 0; i < ops; i++ {
			_ = ts.Index(tnodes[next()])
		}
	})
	next = rng(cfg.seed + 1)
	dSkipIdx := timeIt(func() {
		for i := 0; i < ops; i++ {
			_ = skiplist.Index(snodes[next()])
		}
	})
	fmt.Printf("%12s %14s %14s\n", "operation", "treap", "skip list")
	fmt.Printf("%12s %14s %14s\n", "rotate", nsPer(dTreap, ops), nsPer(dSkip, ops))
	fmt.Printf("%12s %14s %14s\n", "rank", nsPer(dTreapIdx, ops), nsPer(dSkipIdx, ops))
}

// ---------------------------------------------------------------- E12

func runE12(cfg config) {
	n := cfg.size(1<<16, 1<<12)
	ops := 1 << 17
	if cfg.quick {
		ops = 1 << 13
	}
	header("e12", "concurrent coalescing front-end (conn.Batcher)",
		"group commit grows the realized batch size Δ with concurrent clients; per-op cost falls as O(lg(1+n/Δ))  [Thm 1]")
	fmt.Printf("n=%d; closed-loop clients issue %d mixed ops (40%% insert / 25%% delete / 35%% query)\n", n, ops)
	fmt.Printf("%10s %12s %12s %10s %10s %10s\n",
		"clients", "total", "ops/sec", "epochs", "avgΔ", "maxΔ")
	for _, clients := range []int{4, 16, 64} {
		g := conn.New(n)
		// Preload a sparse base graph so queries and deletes have
		// structure to work against.
		base := graphgen.RandomGraph(n, n/2, cfg.seed)
		out := make([]conn.Edge, len(base))
		for i, e := range base {
			out[i] = conn.Edge{U: e.U, V: e.V}
		}
		g.InsertEdges(out)
		b := conn.NewBatcher(g)
		perClient := ops / clients
		var wg sync.WaitGroup
		d := timeIt(func() {
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(cfg.seed + int64(c)))
					for i := 0; i < perClient; i++ {
						u := int32(rng.Intn(n))
						v := int32(rng.Intn(n))
						switch r := rng.Intn(100); {
						case r < 40:
							b.Insert(u, v)
						case r < 65:
							b.Delete(u, v)
						default:
							b.Connected(u, v)
						}
					}
				}(c)
			}
			wg.Wait()
			b.Close()
		})
		s := b.Stats()
		fmt.Printf("%10d %12d %12.0f %10d %10.1f %10d\n",
			clients, s.Ops, float64(s.Ops)/d.Seconds(),
			s.Epochs, s.AvgEpoch(), s.MaxEpoch)
	}
	fmt.Printf("(closed-loop clients bound Δ by the number in flight: the dispatcher drains\n")
	fmt.Printf(" whatever is staged when it goes idle, so Δ grows with the clients)\n")
}

// ---------------------------------------------------------------- E14

func runE14(cfg config) {
	n := cfg.size(1<<15, 1<<12)
	opsTotal := 1 << 15
	if cfg.quick {
		opsTotal = 1 << 12
	}
	const clients = 16
	rec := newRecorder(cfg, "e14", "durable epochs: WAL group-commit overhead (WithDurability)",
		"one fsync per mutating epoch, amortized over the coalesced batch — per-op durability cost shrinks as coalescing grows the epochs")
	dir, err := os.MkdirTemp("", "benchconn-e14-*")
	if err != nil {
		fmt.Printf("skipping e14: %v\n", err)
		return
	}
	defer os.RemoveAll(dir)
	fmt.Printf("n=%d; %d closed-loop clients issue %d mixed ops (50%% insert / 30%% delete / 20%% query)\n", n, clients, opsTotal)
	fmt.Printf("%10s %12s %10s %10s %12s %12s\n",
		"durable", "ops/sec", "epochs", "fsyncs", "µs-fs/epoch", "walKB")
	var memRate float64
	for _, durable := range []bool{false, true} {
		g := conn.New(n)
		base := graphgen.RandomGraph(n, n/2, cfg.seed)
		out := make([]conn.Edge, len(base))
		for i, e := range base {
			out[i] = conn.Edge{U: e.U, V: e.V}
		}
		g.InsertEdges(out)
		var opts []conn.BatcherOption
		if durable {
			opts = append(opts, conn.WithDurability(dir))
		}
		b := conn.NewBatcher(g, opts...)
		perClient := opsTotal / clients
		var wg sync.WaitGroup
		d := timeIt(func() {
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(cfg.seed + int64(c)))
					for i := 0; i < perClient; i++ {
						u := int32(rng.Intn(n))
						v := int32(rng.Intn(n))
						switch r := rng.Intn(100); {
						case r < 50:
							b.Insert(u, v)
						case r < 80:
							b.Delete(u, v)
						default:
							b.Connected(u, v)
						}
					}
				}(c)
			}
			wg.Wait()
			b.Close()
		})
		s := b.Stats()
		rate := float64(s.Ops) / d.Seconds()
		perEpoch := "-"
		if s.WALRecords > 0 {
			perEpoch = fmt.Sprintf("%12.0f", float64(s.WALAppendTime.Microseconds())/float64(s.WALRecords))
		}
		fmt.Printf("%10v %12.0f %10d %10d %12s %12d\n",
			durable, rate, s.Epochs, s.WALRecords, perEpoch, s.WALBytes/1024)
		metrics := map[string]any{
			"ops_per_sec": rate, "epochs": s.Epochs,
			"wal_records": s.WALRecords, "wal_bytes": s.WALBytes,
			"fsyncs": s.WALFsyncs,
		}
		if durable {
			if memRate > 0 {
				fmt.Printf("%10s durable/mem throughput ratio: %.2f\n", "", rate/memRate)
				metrics["durable_mem_ratio"] = rate / memRate
			}
		} else {
			memRate = rate
		}
		rec.row(map[string]any{"durable": durable}, metrics)
	}
	rec.flush()
	fmt.Printf("(the fsync is paid once per mutating epoch before any caller unblocks, and\n")
	fmt.Printf(" submissions that arrive during it form the next epoch — Theorem 1's batching\n")
	fmt.Printf(" argument applied to the disk)\n")
}

// ---------------------------------------------------------------- E18

func runE18(cfg config) {
	// n is kept small on purpose: this experiment measures the durability
	// pipeline (fsync cost and record encoding), and a large graph would
	// bury the fsync share of epoch cost under structure-mutation CPU.
	n := cfg.size(1<<13, 1<<12)
	opsTotal := 1 << 15
	if cfg.quick {
		opsTotal = 1 << 11
	}
	const clients = 128
	rec := newRecorder(cfg, "e18", "durability pipeline: emulated fsync latency",
		"one fsync per epoch is its own group commit: while an fsync runs, submissions pile up into the next epoch, so ops/epoch grows with fsync latency; the v2 record codec carries about half the raw bytes per fsync")
	dir, err := os.MkdirTemp("", "benchconn-e18-*")
	if err != nil {
		fmt.Printf("skipping e18: %v\n", err)
		return
	}
	defer os.RemoveAll(dir)
	// The emulated fsync latency is a chaos delay rule on the WAL's
	// post-fsync site: every Sync stalls that much longer before it reports
	// success.
	fmt.Printf("n=%d; %d closed-loop clients issue %d mutations (60%% insert / 40%% delete)\n", n, clients, opsTotal)
	fmt.Printf("(fsync per epoch; extra fsync latency via %s:delay)\n", chaos.SiteWALAppendPostFsync)
	fmt.Printf("%8s %10s %8s %10s %8s %12s %12s\n",
		"delay", "ops/sec", "epochs", "ops/epoch", "fsyncs", "enc/rawKB", "p99-ack")
	for _, delay := range []time.Duration{0, 2 * time.Millisecond, 10 * time.Millisecond} {
		sub := filepath.Join(dir, delay.String())
		g := conn.New(n)
		base0 := graphgen.RandomGraph(n, n/2, cfg.seed)
		out := make([]conn.Edge, len(base0))
		for i, e := range base0 {
			out[i] = conn.Edge{U: e.U, V: e.V}
		}
		g.InsertEdges(out)
		b := conn.NewBatcher(g, conn.WithDurability(sub))
		if delay > 0 {
			if err := chaos.Arm(cfg.seed, chaos.SiteWALAppendPostFsync.String()+":delay="+delay.String()); err != nil {
				panic(err)
			}
		}
		perClient := opsTotal / clients
		lats := make([][]time.Duration, clients)
		var wg sync.WaitGroup
		d := timeIt(func() {
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(cfg.seed + int64(c)))
					lat := make([]time.Duration, 0, perClient)
					for i := 0; i < perClient; i++ {
						u := int32(rng.Intn(n))
						v := int32(rng.Intn(n))
						t0 := time.Now()
						if rng.Intn(100) < 60 {
							b.Insert(u, v)
						} else {
							b.Delete(u, v)
						}
						lat = append(lat, time.Since(t0))
					}
					lats[c] = lat
				}(c)
			}
			wg.Wait()
			b.Close()
		})
		chaos.Disarm()
		s := b.Stats()
		var all []time.Duration
		for _, l := range lats {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		var p99 time.Duration
		if len(all) > 0 {
			p99 = all[len(all)*99/100]
		}
		rate := float64(s.Ops) / d.Seconds()
		fmt.Printf("%8v %10.0f %8d %10.1f %8d %6d/%-5d %12v\n",
			delay, rate, s.Epochs, s.AvgEpoch(), s.WALFsyncs,
			s.WALBytes/1024, s.WALRawBytes/1024, p99.Round(time.Microsecond))
		rec.row(
			map[string]any{"fsync_delay_ms": float64(delay) / float64(time.Millisecond)},
			map[string]any{
				"ops_per_sec": rate, "epochs": s.Epochs, "ops_per_epoch": s.AvgEpoch(),
				"fsyncs": s.WALFsyncs, "wal_bytes": s.WALBytes, "wal_raw_bytes": s.WALRawBytes,
				"p99_ack_us": float64(p99.Nanoseconds()) / 1e3,
			})
	}
	rec.flush()
	fmt.Printf("(a slower fsync lets more submissions pile up behind it: ops/epoch rises with the\n")
	fmt.Printf(" delay, which is the coalescing buffer acting as group commit; closed-loop\n")
	fmt.Printf(" clients blocked on the epoch being synced cap it below the client count)\n")
}

// ---------------------------------------------------------------- E13

func runE13(cfg config) {
	n := cfg.size(1<<16, 1<<12)
	header("e13", "read tiers under writer load (conn.Batcher)",
		"queries split out of the write pipeline: ReadRecent skips the epoch pipeline and is two array loads — read throughput decouples from epoch throughput")
	dur := 600 * time.Millisecond
	if cfg.quick {
		dur = 150 * time.Millisecond
	}
	const readerGoroutines = 4
	fmt.Printf("n=%d; %d reader goroutines per tier, %v per cell; writers insert/delete random edges\n", n, readerGoroutines, dur)
	fmt.Printf("(each row is one run: its write rate was measured under that tier's read load)\n")
	fmt.Printf("%10s %12s %14s %12s %12s\n",
		"writers", "tier", "reads/s", "writes/s", "publishes")
	tierName := []string{"Connected", "ReadRecent"}
	for _, writers := range []int{0, 2, 8} {
		for tier := range tierName {
			g := conn.New(n)
			base := graphgen.RandomGraph(n, n/2, cfg.seed)
			out := make([]conn.Edge, len(base))
			for i, e := range base {
				out[i] = conn.Edge{U: e.U, V: e.V}
			}
			g.InsertEdges(out)
			b := conn.NewBatcher(g)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			var writes atomic.Int64
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						u := int32(rng.Intn(n))
						v := int32(rng.Intn(n))
						if rng.Intn(3) == 0 {
							b.Delete(u, v)
						} else {
							b.Insert(u, v)
						}
						writes.Add(1)
					}
				}(w)
			}
			var reads atomic.Int64
			for r := 0; r < readerGoroutines; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(cfg.seed + 1000 + int64(r)))
					local := int64(0)
					for {
						select {
						case <-stop:
							reads.Add(local)
							return
						default:
						}
						u := int32(rng.Intn(n))
						v := int32(rng.Intn(n))
						if tier == 0 {
							b.Connected(u, v)
						} else {
							b.ReadRecent(u, v)
						}
						local++
						if local&1023 == 0 {
							// The wait-free tier never blocks; yield so the
							// dispatcher and writers are not starved when
							// readers outnumber cores.
							runtime.Gosched()
						}
					}
				}(r)
			}
			time.Sleep(dur)
			close(stop)
			wg.Wait()
			fmt.Printf("%10d %12s %14.0f %12.0f %12d\n",
				writers, tierName[tier],
				float64(reads.Load())/dur.Seconds(),
				float64(writes.Load())/dur.Seconds(),
				b.Stats().SnapshotPublishes)
			b.Close()
		}
	}
	fmt.Printf("(Connected waits out an epoch commit per query; ReadRecent pays two array loads\n")
	fmt.Printf(" against the last published epoch)\n")
}

// ---------------------------------------------------------------- E16

func runE16(cfg config) {
	n := cfg.size(1<<14, 1<<11)
	dur := 400 * time.Millisecond
	if cfg.quick {
		dur = 120 * time.Millisecond
	}
	const readerGoroutines = 4
	header("e16", "replication: ReadRecent throughput vs replica count under writer load",
		"the WAL is a replayable epoch stream; shipping it to followers scales the bounded-stale read tier horizontally while writes stay on one primary")
	dataDir, err := os.MkdirTemp("", "benchconn-e16-*")
	if err != nil {
		fmt.Printf("skipping e16: %v\n", err)
		return
	}
	defer os.RemoveAll(dataDir)

	primary, err := server.New(server.Options{DataDir: dataDir})
	if err != nil {
		fmt.Printf("skipping e16: %v\n", err)
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Printf("skipping e16: %v\n", err)
		return
	}
	go primary.Serve(ln)
	defer primary.Shutdown()
	primaryAddr := ln.Addr().String()

	admin, err := client.Dial(primaryAddr)
	if err != nil {
		fmt.Printf("skipping e16: %v\n", err)
		return
	}
	defer admin.Close()
	if err := admin.Create("g", n, true); err != nil {
		fmt.Printf("skipping e16: %v\n", err)
		return
	}
	nsAdmin := admin.Namespace("g")
	base := graphgen.RandomGraph(n, n/2, cfg.seed)
	for _, b := range graphgen.Batches(base, 1<<12) {
		es := make([]conn.Edge, len(b))
		for i, e := range b {
			es[i] = conn.Edge{U: e.U, V: e.V}
		}
		if _, err := nsAdmin.InsertEdges(es); err != nil {
			fmt.Printf("skipping e16: preload: %v\n", err)
			return
		}
	}

	// waitApplied polls a replica until it has applied the primary seq the
	// admin client last observed.
	waitApplied := func(addr string) bool {
		target := admin.ObservedSeq("g")
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			cl, err := client.Dial(addr)
			if err == nil {
				st, err := cl.Namespace("g").Stats()
				cl.Close()
				if err == nil && st.AppliedSeq >= target {
					return true
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		return false
	}

	fmt.Printf("n=%d; durable primary + R replica servers in-process; %d ReadRecent readers, %v per cell\n",
		n, readerGoroutines, dur)
	fmt.Printf("%10s %10s %14s %12s %12s %10s\n",
		"replicas", "writers", "reads/s", "writes/s", "shipped", "maxlag")
	for _, replicaCount := range []int{0, 1, 2} {
		var replicaSrvs []*server.Server
		var replicaAddrs []string
		ok := true
		for i := 0; i < replicaCount; i++ {
			r, err := server.New(server.Options{ReplicaOf: primaryAddr})
			if err != nil {
				fmt.Printf("skipping replicas=%d: %v\n", replicaCount, err)
				ok = false
				break
			}
			rln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fmt.Printf("skipping replicas=%d: %v\n", replicaCount, err)
				r.Shutdown()
				ok = false
				break
			}
			go r.Serve(rln)
			replicaSrvs = append(replicaSrvs, r)
			replicaAddrs = append(replicaAddrs, rln.Addr().String())
			if !waitApplied(replicaAddrs[i]) {
				fmt.Printf("skipping replicas=%d: replica never converged\n", replicaCount)
				ok = false
				break
			}
		}
		if ok {
			for _, writers := range []int{0, 2} {
				readCl, err := client.Dial(primaryAddr, client.WithReplicas(replicaAddrs...))
				if err != nil {
					fmt.Printf("skipping cell: %v\n", err)
					continue
				}
				stop := make(chan struct{})
				var wg sync.WaitGroup
				var reads, writes atomic.Int64
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
						ns := admin.Namespace("g")
						for {
							select {
							case <-stop:
								return
							default:
							}
							u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
							if rng.Intn(3) == 0 {
								ns.Delete(u, v)
							} else {
								ns.Insert(u, v)
							}
							writes.Add(1)
							// Single-CPU CI: writers must not starve the
							// dispatcher or the replica apply loops.
							runtime.Gosched()
						}
					}(w)
				}
				for r := 0; r < readerGoroutines; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(cfg.seed + 100 + int64(r)))
						ns := readCl.Namespace("g")
						local := int64(0)
						for {
							select {
							case <-stop:
								reads.Add(local)
								return
							default:
							}
							if _, err := ns.ReadRecent(int32(rng.Intn(n)), int32(rng.Intn(n))); err == nil {
								local++
							}
							runtime.Gosched()
						}
					}(r)
				}
				time.Sleep(dur)
				close(stop)
				wg.Wait()
				st, _ := nsAdmin.Stats()
				fmt.Printf("%10d %10d %14.0f %12.0f %12d %10d\n",
					replicaCount, writers,
					float64(reads.Load())/dur.Seconds(),
					float64(writes.Load())/dur.Seconds(),
					st.LastShippedSeq, st.MaxFollowerLag)
				readCl.Close()
			}
		}
		for _, r := range replicaSrvs {
			r.Shutdown()
		}
	}
	fmt.Printf("(reads with bounded-staleness tolerance fan out over the replicas, fenced by the\n")
	fmt.Printf(" client's observed write seq; writes always hit the primary. On a multi-core host\n")
	fmt.Printf(" aggregate read throughput grows with replica count — a single-CPU container\n")
	fmt.Printf(" serializes primary, replicas and clients onto one core and understates it)\n")
}

// ---------------------------------------------------------------- E15

func runE15(cfg config) {
	n := cfg.size(1<<15, 1<<12)
	framesTotal := 1 << 10
	if cfg.quick {
		framesTotal = 1 << 7
	}
	const frameOps = 64
	rec := newRecorder(cfg, "e15", "network front-end: throughput vs connections vs pipeline depth",
		"in-flight frames block in the Batcher and coalesce into one epoch — network concurrency (conns × depth) grows Δ exactly like in-process concurrency")
	srv, err := server.New(server.Options{})
	if err != nil {
		fmt.Printf("skipping e15: %v\n", err)
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Printf("skipping e15: %v\n", err)
		return
	}
	go srv.Serve(ln)
	defer srv.Shutdown()
	addr := ln.Addr().String()

	admin, err := client.Dial(addr)
	if err != nil {
		fmt.Printf("skipping e15: %v\n", err)
		return
	}
	defer admin.Close()

	fmt.Printf("n=%d; loopback server; frames of %d mixed ops (60%% insert / 20%% delete / 20%% query)\n", n, frameOps)
	fmt.Printf("%8s %8s %12s %12s %10s %10s\n",
		"conns", "depth", "wire-ops", "ops/sec", "epochs", "avgΔ")
	cell := 0
	for _, conns := range []int{1, 2, 4} {
		for _, depth := range []int{1, 4, 16} {
			cell++
			nsName := fmt.Sprintf("bench%d", cell)
			if err := admin.Create(nsName, n, false); err != nil {
				fmt.Printf("skipping cell: %v\n", err)
				continue
			}
			cl, err := client.Dial(addr, client.WithConns(conns))
			if err != nil {
				fmt.Printf("skipping cell: %v\n", err)
				continue
			}
			// depth drivers per connection: the client round-robins frames
			// across its pool, so conns×depth concurrent callers keep about
			// `depth` frames in flight on each connection. Driver loops need
			// no explicit Gosched — every iteration blocks on a full wire
			// round trip, so the scheduler always gets the core back (the
			// e13 lesson applies to spinning readers, not blocking ones).
			drivers := conns * depth
			perDriver := framesTotal / drivers
			if perDriver == 0 {
				perDriver = 1
			}
			var wg sync.WaitGroup
			var opCount atomic.Int64
			d := timeIt(func() {
				for c := 0; c < drivers; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(cfg.seed + int64(c)))
						ns := cl.Namespace(nsName)
						group := make([]conn.Op, frameOps)
						for f := 0; f < perDriver; f++ {
							for i := range group {
								kind := conn.OpInsert
								switch x := rng.Intn(10); {
								case x < 2:
									kind = conn.OpDelete
								case x < 4:
									kind = conn.OpQuery
								}
								group[i] = conn.Op{Kind: kind,
									U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
							}
							if _, err := ns.Do(group); err != nil {
								fmt.Printf("driver error: %v\n", err)
								return
							}
							opCount.Add(int64(len(group)))
						}
					}(c)
				}
				wg.Wait()
			})
			st, err := cl.Namespace(nsName).Stats()
			if err != nil {
				fmt.Printf("stats: %v\n", err)
			}
			avg := "-"
			if st.Epochs > 0 {
				avg = fmt.Sprintf("%10.0f", float64(st.Ops)/float64(st.Epochs))
			}
			fmt.Printf("%8d %8d %12d %12.0f %10d %10s\n",
				conns, depth, opCount.Load(), float64(opCount.Load())/d.Seconds(),
				st.Epochs, avg)
			rec.row(
				map[string]any{"conns": conns, "depth": depth, "n": n},
				map[string]any{
					"ops": opCount.Load(), "seconds": d.Seconds(),
					"ops_per_sec": float64(opCount.Load()) / d.Seconds(),
					"epochs":      st.Epochs,
					"avg_epoch":   float64(st.Ops) / float64(max(st.Epochs, 1)),
				},
			)
			cl.Close()
			admin.Drop(nsName)
		}
	}
	fmt.Printf("(every in-flight frame is a blocked group in the Batcher; more connections and\n")
	fmt.Printf(" deeper pipelines mean more groups per epoch — the network analogue of e12's\n")
	fmt.Printf(" concurrent callers. Single-CPU containers understate the separation: client,\n")
	fmt.Printf(" server and dispatcher all share one core)\n")
	rec.flush()
}

// ---------------------------------------------------------------- E17

func runE17(cfg config) {
	n := cfg.size(1<<14, 1<<11)
	framesTotal := 1 << 11
	if cfg.quick {
		framesTotal = 1 << 8
	}
	const (
		frameOps = 32
		drivers  = 8
	)
	rec := newRecorder(cfg, "e17", "sharded writes: durable throughput vs partition count",
		"hash-partitioning the vertex space runs one epoch pipeline per shard — k WAL fsync streams overlap, so mostly-intra-shard write throughput rises with k")

	data, err := os.MkdirTemp("", "benchconn-e17-*")
	if err != nil {
		fmt.Printf("skipping e17: %v\n", err)
		return
	}
	defer os.RemoveAll(data)
	// A single engine commits its WAL serially while k shards commit k logs
	// concurrently — the separation under test.
	srv, err := server.New(server.Options{DataDir: data})
	if err != nil {
		fmt.Printf("skipping e17: %v\n", err)
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Printf("skipping e17: %v\n", err)
		return
	}
	go srv.Serve(ln)
	defer srv.Shutdown()
	addr := ln.Addr().String()

	admin, err := client.Dial(addr)
	if err != nil {
		fmt.Printf("skipping e17: %v\n", err)
		return
	}
	defer admin.Close()

	fmt.Printf("n=%d; durable loopback namespaces; %d drivers × frames of %d mutations\n",
		n, drivers, frameOps)
	fmt.Printf("(~95%% intra-shard edges, 70%% insert / 30%% delete)\n")
	fmt.Printf("%8s %12s %12s %10s %10s %12s\n",
		"shards", "wire-ops", "ops/sec", "epochs", "walrecs", "speedup")
	var base float64
	for _, k := range []int{1, 2, 4} {
		nsName := fmt.Sprintf("shard%d", k)
		if err := admin.CreateSharded(nsName, n, true, k); err != nil {
			fmt.Printf("skipping k=%d: %v\n", k, err)
			continue
		}
		// Per-partition vertex pools so ~95% of generated edges stay
		// intra-shard: cross-shard edges ride the boundary engine and would
		// serialize there if they dominated.
		parts := make([][]int32, k)
		for u := int32(0); u < int32(n); u++ {
			s := client.Partition(u, k)
			parts[s] = append(parts[s], u)
		}
		cl, err := client.Dial(addr, client.WithConns(2))
		if err != nil {
			fmt.Printf("skipping k=%d: %v\n", k, err)
			continue
		}
		perDriver := framesTotal / drivers
		var wg sync.WaitGroup
		var opCount atomic.Int64
		d := timeIt(func() {
			for c := 0; c < drivers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(cfg.seed + int64(c)))
					ns := cl.Namespace(nsName)
					group := make([]conn.Op, frameOps)
					for f := 0; f < perDriver; f++ {
						for i := range group {
							kind := conn.OpInsert
							if rng.Intn(10) < 3 {
								kind = conn.OpDelete
							}
							var u, v int32
							if rng.Intn(100) < 95 {
								vs := parts[rng.Intn(k)]
								u, v = vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]
							} else {
								u, v = int32(rng.Intn(n)), int32(rng.Intn(n))
							}
							group[i] = conn.Op{Kind: kind, U: u, V: v}
						}
						if _, err := ns.Do(group); err != nil {
							fmt.Printf("driver error: %v\n", err)
							return
						}
						opCount.Add(int64(len(group)))
					}
				}(c)
			}
			wg.Wait()
		})
		st, err := cl.Namespace(nsName).Stats()
		if err != nil {
			fmt.Printf("stats: %v\n", err)
		}
		opsSec := float64(opCount.Load()) / d.Seconds()
		if k == 1 {
			base = opsSec
		}
		speedup := "-"
		if base > 0 {
			speedup = fmt.Sprintf("%11.2fx", opsSec/base)
		}
		fmt.Printf("%8d %12d %12.0f %10d %10d %12s\n",
			k, opCount.Load(), opsSec, st.Epochs, st.WALRecords, speedup)
		rec.row(
			map[string]any{"shards": k, "n": n, "drivers": drivers, "frame_ops": frameOps},
			map[string]any{
				"ops": opCount.Load(), "seconds": d.Seconds(),
				"ops_per_sec": opsSec, "epochs": st.Epochs,
				"wal_records": st.WALRecords,
				"speedup_vs_1": func() float64 {
					if base > 0 {
						return opsSec / base
					}
					return 1
				}(),
			},
		)
		cl.Close()
		admin.Drop(nsName)
	}
	fmt.Printf("(every mutating epoch costs one fsync; k shard engines overlap k WAL streams,\n")
	fmt.Printf(" but a single engine folds everything staged during its fsync into its next\n")
	fmt.Printf(" epoch, so the overlap only pays where that fold leaves the log the bottleneck.\n")
	fmt.Printf(" Cross-shard edges ride the boundary engine)\n")
	rec.flush()
}
