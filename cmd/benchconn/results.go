package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// benchRow is one measured cell of an experiment: the swept parameters and
// the metrics observed at that point.
type benchRow struct {
	Params  map[string]any `json:"params"`
	Metrics map[string]any `json:"metrics"`
}

// host identifies the machine and build a result file was measured on, so
// numbers from different runs are only compared like for like.
type host struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// currentHost samples the host block. The commit carries a "-dirty" suffix
// when the working tree has uncommitted changes, and is "unknown" outside a
// git checkout.
func currentHost() host {
	h := host{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// recorder accumulates an experiment's rows and writes them as a
// machine-readable BENCH_<experiment>.json next to the human-readable
// stdout tables, so plots and regression checks can consume the runs
// without scraping text.
type recorder struct {
	Experiment string     `json:"experiment"`
	Title      string     `json:"title"`
	Claim      string     `json:"claim"`
	Quick      bool       `json:"quick"`
	Seed       int64      `json:"seed"`
	Host       host       `json:"host"`
	Rows       []benchRow `json:"rows"`

	dir string
}

// newRecorder starts a result file for one experiment and prints the
// experiment header. Every experiment that records rows ends with flush().
func newRecorder(cfg config, id, title, claim string) *recorder {
	header(id, title, claim)
	return &recorder{
		Experiment: id, Title: title, Claim: claim,
		Quick: cfg.quick, Seed: cfg.seed, Host: currentHost(), dir: cfg.outDir,
	}
}

// row records one measured cell.
func (r *recorder) row(params, metrics map[string]any) {
	r.Rows = append(r.Rows, benchRow{Params: params, Metrics: metrics})
}

// flush writes BENCH_<experiment>.json (pretty-printed, trailing newline)
// into the configured output directory. A -quick run writes
// BENCH_<experiment>.quick.json instead, so a smoke run can never
// overwrite — or be mistaken for — a full measurement. Failures are
// reported, not fatal — the stdout tables already carry the numbers.
func (r *recorder) flush() {
	if r.dir == "" || len(r.Rows) == 0 {
		return
	}
	name := fmt.Sprintf("BENCH_%s.json", r.Experiment)
	if r.Quick {
		name = fmt.Sprintf("BENCH_%s.quick.json", r.Experiment)
	}
	path := filepath.Join(r.dir, name)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchconn: encoding %s: %v\n", path, err)
		return
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchconn: writing %s: %v\n", path, err)
		return
	}
	fmt.Printf("(wrote %s)\n", path)
}
