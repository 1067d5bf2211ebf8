// Benchconn regenerates the paper's evaluation. "Parallel Batch-Dynamic
// Graph Connectivity" (SPAA 2019) is a theory paper — its results are the
// cost bounds of Theorems 1-9, not measurement tables — so each experiment
// here measures the bound's empirical shape: how per-operation cost moves
// with batch size, input size, and worker count, and how the algorithm
// compares to the baselines the paper positions itself against (sequential
// HDT, static recompute, incremental union-find).
//
//	go run ./cmd/benchconn -exp all          # everything, default sizes
//	go run ./cmd/benchconn -exp e3 -n 65536  # one experiment, custom n
//	go run ./cmd/benchconn -quick            # smaller sizes for smoke runs
//
// Experiment index (see DESIGN.md §4 for the map to the paper):
//
//	e1  batch connectivity queries: work O(k lg(1+n/k))      [Theorem 3]
//	e2  batch insertions: work O(k lg(1+n/k))                [Theorem 4]
//	e3  batch deletions vs Δ: work O(lg n lg(1+n/Δ))/edge    [Theorem 9]
//	e4  parallel structure vs sequential HDT                 [Theorem 6]
//	e5  speedup vs worker count P                            [depth bounds]
//	e6  batch-parallel ETT substrate ops                     [Theorem 2]
//	e7  ablation: Algorithm 4 vs Algorithm 5                 [§3 vs §4]
//	e8  batch-dynamic vs static recompute crossover          [§1 motivation]
//	e9  insertion-only vs union-find baseline                [related work]
//	e10 level dynamics: pushdown totals vs the m·lg n bound  [analysis]
//	e11 sequence substrate ablation: treap vs skip list      [§2.1 substrate]
//	e12 concurrent coalescing front-end (conn.Batcher)       [Thm 1 under traffic]
//	e13 read tiers vs writer load (Connected/ReadRecent)     [read path]
//	e14 durable epochs: WAL group-commit overhead            [WithDurability]
//	e15 network front-end: conns × pipeline depth            [cmd/connserver]
//	e16 replication: read throughput vs replica count        [internal/repl]
//	e17 sharded writes: throughput vs partition count        [internal/shard]
//	e18 durability pipeline: emulated fsync latency          [v2 WAL records, per-epoch fsync]
//
// Experiments that sweep a parameter also emit a machine-readable
// BENCH_<experiment>.json result file (see -out) with one row per measured
// cell, so plots and regression checks need not scrape the tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (e1..e18, comma separated, or 'all')")
	n := flag.Int("n", 0, "override vertex count (0 = per-experiment default)")
	quick := flag.Bool("quick", false, "smaller sizes for a fast smoke run")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", ".", "directory for BENCH_<experiment>.json result files (empty = don't write)")
	flag.Parse()

	cfg := config{n: *n, quick: *quick, seed: *seed, outDir: *out}
	all := map[string]func(config){
		"e1": runE1, "e2": runE2, "e3": runE3, "e4": runE4, "e5": runE5,
		"e6": runE6, "e7": runE7, "e8": runE8, "e9": runE9, "e10": runE10,
		"e11": runE11, "e12": runE12, "e13": runE13, "e14": runE14, "e15": runE15,
		"e16": runE16, "e17": runE17, "e18": runE18,
	}
	order := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17", "e18"}

	want := map[string]bool{}
	if *exp == "all" {
		for _, id := range order {
			want[id] = true
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if _, ok := all[id]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (want e1..e18)\n", id)
				os.Exit(2)
			}
			want[id] = true
		}
	}
	for _, id := range order {
		if want[id] {
			all[id](cfg)
		}
	}
}

type config struct {
	n      int
	quick  bool
	seed   int64
	outDir string
}

// size picks the experiment's n: explicit -n wins, then quick/full defaults.
func (c config) size(full, quickN int) int {
	if c.n > 0 {
		return c.n
	}
	if c.quick {
		return quickN
	}
	return full
}

func header(id, title, claim string) {
	fmt.Printf("\n=== %s: %s ===\n", strings.ToUpper(id), title)
	fmt.Printf("claim: %s\n", claim)
}
