// Command connbench is the repository's regression benchmark: four named
// workloads over the public entry points (conn.Graph; internal/server and
// client over loopback TCP), a correctness oracle, end-to-end metrics measured
// with tracing off, and a separate traced pass that attributes time to layers.
// BENCHMARK.json at the repository root names the command, the workloads and
// every metric; README.md in this directory defines them.
//
// cmd/benchconn's e1-e18 remain the paper-shape experiments; this is not one
// of them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all four)")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same op streams")
		seconds  = flag.Float64("seconds", 10, "timed window per run, in seconds")
		trace    = flag.Int("trace", 0, "1: run the traced layer-ladder pass and print per-layer metrics")
		repeat   = flag.Int("repeat", 1, "run the selected workloads this many times and print the spread")
		smoke    = flag.Bool("smoke", false, "about one second per workload on n=4096 (what go test runs)")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for result, trace and scratch files")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: connbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-repeat N] [-smoke]")
		os.Exit(2)
	}
	run := specs
	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "connbench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		run = []spec{sp}
	}
	cfg := config{seed: *seed, seconds: *seconds, n: fullN, outDir: *outDir}
	if *smoke {
		cfg.seconds, cfg.n = 1, smokeN
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "connbench:", err)
		os.Exit(1)
	}

	hdr := hostHeader(cfg)
	fmt.Printf("# connbench nproc=%d GOMAXPROCS=%d %s commit=%s kernel=%s seed=%d seconds=%g n=%d trace=%d\n",
		hdr.NProc, hdr.GoMaxProcs, hdr.GoVersion, hdr.Commit, hdr.Kernel, hdr.Seed, hdr.Seconds, hdr.N, *trace)

	var all []*result
	failed := false
	for rep := 0; rep < *repeat; rep++ {
		for _, sp := range run {
			res, err := runOne(sp, cfg, *trace == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "connbench: %s: %v\n", sp.name, err)
				os.Exit(1)
			}
			printResult(res)
			if err := writeResultFile(cfg.outDir, hdr, res, *trace == 1); err != nil {
				fmt.Fprintln(os.Stderr, "connbench:", err)
				os.Exit(1)
			}
			failed = failed || res.Failed > 0
			all = append(all, res)
		}
	}
	if *repeat > 1 {
		printSpread(all)
	}
	// The last line of standard output is the last run's result, as the
	// BENCHMARK.json contract asks.
	last := all[len(all)-1]
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{last.Failed == 0, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "connbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if failed {
		os.Exit(1)
	}
}

// runOne runs one workload once, bracketed by the calibration spin.
func runOne(sp spec, cfg config, traced bool) (*result, error) {
	before := calibMs()
	var res *result
	var err error
	switch {
	case traced:
		res, err = runTraced(sp, cfg)
	case sp.server:
		res, err = runServer(sp, cfg)
	default:
		res, err = runCore(sp, cfg)
	}
	if err != nil {
		return nil, err
	}
	after := calibMs()
	res.CalibMs = [2]float64{before, after}
	res.Noisy = after > before*1.1 || before > after*1.1
	return res, nil
}

// calibSink keeps the spin's result live.
var calibSink uint64

// calibMs times a fixed integer spin (about 200 ms on the box the bounds
// were set on). A workload whose two spins differ by more than a tenth ran
// beside something else and is marked noisy.
func calibMs() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 100_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return ms(time.Since(t0))
}

// header is the host block every result file starts with.
type header struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Kernel     string  `json:"kernel"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	N          int     `json:"n"`
}

func hostHeader(cfg config) header {
	h := header{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Kernel: "unknown", Seed: cfg.seed, Seconds: cfg.seconds, N: cfg.n,
	}
	// The commit, when run from the root of a git checkout with loose refs.
	if b, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		head := strings.TrimSpace(string(b))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			b, _ = os.ReadFile(filepath.Join(".git", ref))
			head = strings.TrimSpace(string(b))
		}
		if len(head) >= 12 {
			h.Commit = head[:12]
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }

func printResult(r *result) {
	fmt.Printf("== %s  attempted=%d failed=%d failed_share=%g calib_ms=%.1f/%.1f noisy=%v\n",
		r.Workload, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted), r.CalibMs[0], r.CalibMs[1], r.Noisy)
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Printf("  %-32s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	for _, k := range sortedKeys(r.Extra) {
		fmt.Printf("  %-32s %14.4f %s (not gated)\n", k, r.Extra[k].Value, r.Extra[k].Unit)
	}
	if r.Ladder != nil {
		r.Ladder.print()
	}
}

func writeResultFile(dir string, hdr header, r *result, traced bool) error {
	kind := "result"
	if traced {
		kind = "layers"
	}
	b, err := json.MarshalIndent(struct {
		Host   header  `json:"host"`
		Result *result `json:"result"`
	}{hdr, r}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, kind+"-"+r.Workload+".json"), b, 0o644)
}

// printSpread prints, per workload and metric, the median, quartiles and
// largest relative deviation over the repeats: the numbers each bound in
// BENCHMARK.json was set from.
func printSpread(all []*result) {
	byWorkload := map[string]map[string][]float64{}
	var order []string
	for _, r := range all {
		if byWorkload[r.Workload] == nil {
			byWorkload[r.Workload] = map[string][]float64{}
			order = append(order, r.Workload)
		}
		for k, m := range r.Metrics {
			byWorkload[r.Workload][k] = append(byWorkload[r.Workload][k], m.Value)
		}
	}
	fmt.Printf("== spread over %d runs per workload (iqr_share = (q3-q1)/median)\n", len(all)/len(order))
	for _, w := range order {
		for _, k := range sortedKeys(byWorkload[w]) {
			xs := byWorkload[w][k]
			q1, q3 := quartiles(xs)
			med := median(xs)
			iqr := 0.0
			if med != 0 {
				iqr = (q3 - q1) / med
			}
			fmt.Printf("  %-22s %-32s median=%-14.4f q1=%-14.4f q3=%-14.4f iqr_share=%.4f max_rel_dev=%.4f\n",
				w, k, med, q1, q3, iqr, maxRelDev(xs))
		}
	}
}
