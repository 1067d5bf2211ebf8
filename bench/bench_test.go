package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	conn "repro"
)

// frames returns driver d's first k frames of a server workload.
func frames(sp spec, seed uint64, d, k int) [][]conn.Op {
	win := smokeN / numDrivers
	g := newGen(seed, d, numDrivers, smokeN, win, churnIns)
	buf := make([]conn.Op, preloadOps)
	for g.count < win {
		g.preloadFrame(buf, win)
	}
	var out [][]conn.Op
	for i := 0; i < k; i++ {
		var f []conn.Op
		if sp.frameKind(i) == frameChurn {
			f = make([]conn.Op, churnOps)
			g.churnFrame(f)
		} else {
			qs := make([]conn.Edge, readPairs)
			g.pairs(qs)
			for _, q := range qs {
				f = append(f, conn.Op{Kind: conn.OpQuery, U: q.U, V: q.V})
			}
		}
		out = append(out, f)
	}
	return out
}

func TestGeneratorDeterminism(t *testing.T) {
	churn, _ := specByName("server-durable-churn")
	sharded, _ := specByName("server-sharded-churn")
	reads, _ := specByName("server-read-mostly")
	for _, sp := range []spec{churn, reads} {
		if !reflect.DeepEqual(frames(sp, 7, 3, 50), frames(sp, 7, 3, 50)) {
			t.Errorf("%s: same seed gave different frames", sp.name)
		}
		if reflect.DeepEqual(frames(sp, 7, 3, 50), frames(sp, 8, 3, 50)) {
			t.Errorf("%s: different seeds gave the same frames", sp.name)
		}
	}
	if !reflect.DeepEqual(frames(churn, 7, 3, 50), frames(sharded, 7, 3, 50)) {
		t.Error("sharded and plain churn streams differ")
	}
}

func TestDriversOwnDisjointEdges(t *testing.T) {
	owner := map[uint64]int{}
	for d := 0; d < numDrivers; d++ {
		g := newGen(1, d, numDrivers, smokeN, 2000, 0)
		for i := 0; i < 2000; i++ {
			e := g.fresh()
			if e.U == e.V || e.U < 0 || e.V < 0 || e.U >= smokeN || e.V >= smokeN {
				t.Fatalf("driver %d: bad edge %v", d, e)
			}
			if got := int(e.U/2+e.V/2) % numDrivers; got != d {
				t.Fatalf("driver %d generated %v, which is in driver %d's slice", d, e, got)
			}
			if prev, dup := owner[e.Key()]; dup {
				t.Fatalf("edge %v generated by driver %d and again by driver %d", e, prev, d)
			}
			owner[e.Key()] = d
		}
	}
}

func TestDeletesNameLiveEdges(t *testing.T) {
	live := map[uint64]bool{}
	win := smokeN / numDrivers
	g := newGen(3, 5, numDrivers, smokeN, win, churnIns)
	buf := make([]conn.Op, preloadOps)
	apply := func(ops []conn.Op) {
		// Inserts before deletes, as an epoch applies them.
		for _, kind := range []conn.OpKind{conn.OpInsert, conn.OpDelete} {
			for _, op := range ops {
				if op.Kind != kind {
					continue
				}
				k := conn.Edge{U: op.U, V: op.V}.Key()
				if live[k] != (kind == conn.OpDelete) {
					t.Fatalf("op %+v: edge live=%v", op, live[k])
				}
				live[k] = kind == conn.OpInsert
			}
		}
	}
	for g.count < win {
		apply(g.preloadFrame(buf, win))
	}
	ops := make([]conn.Op, churnOps)
	for i := 0; i < 3*win; i++ { // cycles the whole window several times
		g.churnFrame(ops)
		apply(ops)
		if g.count != win {
			t.Fatalf("live window is %d, want %d", g.count, win)
		}
	}
	n := 0
	for _, e := range g.liveEdges() {
		if !live[e.Key()] {
			t.Fatalf("liveEdges lists %v, which is not live", e)
		}
		n++
	}
	for _, l := range live {
		if l {
			n--
		}
	}
	if n != 0 {
		t.Fatalf("liveEdges and the replayed stream disagree by %d edges", n)
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 95: 10, 90: 9, 10: 1, 100: 10} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([5, 1, 9], n=4) == [1.0, 5.0, 9.0]
	if q1, q3 := quartiles([]float64{5, 1, 9}); q1 != 1 || q3 != 9 {
		t.Errorf("quartiles of three = %v, %v, want 1, 9", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if d := maxRelDev([]float64{9, 10, 12}); math.Abs(d-0.2) > 1e-12 {
		t.Errorf("maxRelDev = %v, want 0.2", d)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "client", Start: 0, End: 100, Parent: -1},
		{Name: "wire", Start: 100, End: 110, Parent: 0},
		{Name: "shard", Start: 110, End: 170, Parent: 0},
		{Name: "engine", Start: 170, End: 210, Parent: 2},
		{Name: "core.insert", Start: 210, End: 220, Parent: 3},
		{Name: "core.delete", Start: 220, End: 235, Parent: 3},
		{Name: "snapshot", Start: 235, End: 285, Parent: 3}, // longer than what engine has left
		{Name: "wal.sync", Start: 285, End: 290, Parent: 0},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"client":   25, // 100 - wire 10 - shard 60 - wal 5
		"wire":     10,
		"shard":    20, // 60 - engine 40
		"core":     25, // engine's self floors at zero: 40 - 10 - 15 - 50 < 0
		"snapshot": 50,
		"wal":      5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestStallOverlap(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(endMs, durMs int) sample {
		return sample{end: t0.Add(time.Duration(endMs) * time.Millisecond), dur: time.Duration(durMs) * time.Millisecond}
	}
	lat := []sample{at(10, 5), at(30, 12), at(60, 40), at(90, 3)}
	ckpts := []sample{at(35, 10)} // runs over [25, 35]
	if got := stallMs(lat, ckpts); got != 40 {
		t.Errorf("stallMs = %v, want 40 (the unit over [20, 60] spans the checkpoint)", got)
	}
	if got := stallMs(lat, nil); got != 0 {
		t.Errorf("stallMs without checkpoints = %v, want 0", got)
	}
}

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload through both passes on the small universe
// and holds the program to what BENCHMARK.json declares: the workloads, and
// exactly the declared metric names and units per pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs about a second per workload and pass")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	cfg := config{seed: 1, seconds: 1, n: smokeN, outDir: t.TempDir()}
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			res, err := runOne(sp, cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", sp.name, traced, res.Attempted, res.Failed)
			}
			want := declared(bf.EndToEnd)
			if traced {
				want = declared(bf.PerLayer)
			}
			got := map[string]string{}
			for k, m := range res.Metrics {
				got[k] = m.Unit
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", sp.name, traced, k, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", sp.name, k, m.Value)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics differ from BENCHMARK.json\n got  %v\n want %v", sp.name, traced, got, want)
			}
			if traced {
				checkLadder(t, sp, res.Ladder)
			}
		}
	}
}

func checkLadder(t *testing.T, sp spec, r *ladderReport) {
	t.Helper()
	sum := r.Unattributed
	for _, row := range r.Layers {
		if !row.InPath && row.Share != 0 {
			t.Errorf("%s: layer %s is outside the path but has share %v", sp.name, row.Layer, row.Share)
		}
		sum += row.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("%s: layer shares and unattributed_share sum to %v, want 1", sp.name, sum)
	}
	raw, err := os.ReadFile(r.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct{ Spans []span }
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	roots := 0
	for i, s := range tf.Spans {
		if s.End < s.Start || s.Parent >= i {
			t.Fatalf("%s: span %d is malformed: %+v", sp.name, i, s)
		}
		if s.Parent < 0 {
			roots++
		} else if !slices.Contains(ladderLayers, layerOf(s.Name)) {
			t.Fatalf("%s: span %d has unknown layer: %+v", sp.name, i, s)
		}
	}
	if roots != r.Units {
		t.Errorf("%s: %d root spans for %d units", sp.name, roots, r.Units)
	}
}
