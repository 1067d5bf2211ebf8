package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	conn "repro"
	"repro/client"
	"repro/internal/server"
)

// spec names one workload. The why strings are the ones BENCHMARK.json and
// README.md carry.
type spec struct {
	name    string
	why     string
	server  bool // false: conn.Graph in process, single caller
	durable bool
	readMix bool // 9 of 10 frames are read-tier frames
	shards  int  // >= 2: CreateSharded + DoSharded
}

var specs = []spec{
	{name: "core-window",
		why: "conn.Graph alone at batch 4096: only the core works, so a core change shows here and nothing else can"},
	{name: "server-durable-churn", server: true, durable: true,
		why: "16-op frames on a durable namespace: window, WAL fsync, publish and wire cost as much as the core"},
	{name: "server-read-mostly", server: true, readMix: true,
		why: "9 of 10 frames are 256-pair reads beside writes, no WAL: a write-path gain that slows the read tiers shows here"},
	{name: "server-sharded-churn", server: true, durable: true, shards: 2,
		why: "the durable-churn stream against a 2-shard namespace: isolates scatter/gather and the boundary engine"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// config is one run's parameters.
type config struct {
	seed    uint64
	seconds float64 // timed window; warm-up is a tenth of it
	n       int
	outDir  string // result files, trace files and server data dirs
}

func (c config) warm() time.Duration { return secs(c.seconds / 10) }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. Metrics holds exactly the
// gated (end-to-end) or the per-layer set; Extra holds ungated detail that is
// printed and written to the result file only.
type result struct {
	Workload  string            `json:"workload"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
	CalibMs   [2]float64        `json:"calib_ms"`
	Noisy     bool              `json:"noisy"`
	Ladder    *ladderReport     `json:"ladder,omitempty"`
}

// tally counts operations attempted and operations that failed: an errored
// frame fails all its ops, a refused insert or delete fails one, and an
// oracle mismatch fails one.
type tally struct{ attempted, failed atomic.Int64 }

// checkMutations charges the frame's ops to t and returns false when the
// frame failed outright.
func (t *tally) checkMutations(ops []conn.Op, res []bool, err error) bool {
	t.attempted.Add(int64(len(ops)))
	if err != nil || len(res) != len(ops) {
		t.failed.Add(int64(len(ops)))
		return false
	}
	for i, op := range ops {
		if op.Kind != conn.OpQuery && !res[i] {
			t.failed.Add(1)
		}
	}
	return true
}

func (t *tally) checkReads(pairs int, res []bool, err error) bool {
	t.attempted.Add(int64(pairs))
	if err != nil || len(res) != pairs {
		t.failed.Add(int64(pairs))
		return false
	}
	return true
}

// sample is one write unit's latency, with its completion time for the
// checkpoint-stall overlap.
type sample struct {
	end time.Time
	dur time.Duration
}

// window accumulates what one driver saw during the timed window.
type window struct {
	writeOps   int64
	queryPairs int64
	lat        []sample
}

// harness is one in-process server on loopback TCP with a connected client
// and one namespace, the system under test of the server-* workloads.
type harness struct {
	sp       spec
	dir      string // server DataDir; empty when not durable
	srv      *server.Server
	serveErr chan error
	cl       *client.Client
	ns       *client.Namespace
}

const nsName = "bench"

// start serves on a fresh loopback port with default server options and
// dials the client. With a DataDir that holds state the namespace is restored.
func (h *harness) start() error {
	srv, err := server.New(server.Options{DataDir: h.dir})
	if err != nil {
		return fmt.Errorf("server.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	h.srv, h.serveErr = srv, make(chan error, 1)
	go func() { h.serveErr <- srv.Serve(ln) }()
	h.cl, err = client.Dial(ln.Addr().String(), client.WithConns(numConns))
	if err != nil {
		h.stop()
		return fmt.Errorf("dial: %w", err)
	}
	h.ns = h.cl.Namespace(nsName)
	return nil
}

// stop drains the server (checkpointing durable namespaces) and waits for
// its accept loop to return. Stopping a stopped harness does nothing.
func (h *harness) stop() error {
	if h.cl != nil {
		_ = h.cl.Close() // nothing is in flight
		h.cl = nil
	}
	if h.srv == nil {
		return nil
	}
	h.srv.Shutdown()
	h.srv = nil
	return <-h.serveErr
}

func (h *harness) do(ops []conn.Op) ([]bool, error) {
	if h.sp.shards >= 2 {
		return h.ns.DoSharded(h.sp.shards, ops)
	}
	return h.ns.Do(ops)
}

// setupServer builds the system under test from nothing: server, client,
// namespace, and every driver's live window preloaded through the workload's
// own write call. It returns the generators positioned after the preload.
func setupServer(sp spec, cfg config, t *tally) (*harness, []*gen, error) {
	h := &harness{sp: sp}
	if sp.durable {
		dir, err := os.MkdirTemp(cfg.outDir, "data-")
		if err != nil {
			return nil, nil, err
		}
		h.dir = dir
	}
	if err := h.start(); err != nil {
		return nil, nil, err
	}
	var err error
	if sp.shards >= 2 {
		err = h.cl.CreateSharded(nsName, cfg.n, sp.durable, sp.shards)
	} else {
		err = h.cl.Create(nsName, cfg.n, sp.durable)
	}
	if err != nil {
		_ = h.stop()
		return nil, nil, fmt.Errorf("create namespace: %w", err)
	}
	win := cfg.n / numDrivers
	gens := make([]*gen, numDrivers)
	var wg sync.WaitGroup
	for d := range gens {
		gens[d] = newGen(cfg.seed, d, numDrivers, cfg.n, win, churnIns)
		wg.Add(1)
		go func(g *gen) {
			defer wg.Done()
			buf := make([]conn.Op, preloadOps)
			for g.count < win {
				ops := g.preloadFrame(buf, win)
				res, err := h.do(ops)
				if !t.checkMutations(ops, res, err) {
					return // the window stays short; the oracle check reports it
				}
			}
		}(gens[d])
	}
	wg.Wait()
	return h, gens, nil
}

func (h *harness) discard() {
	_ = h.stop()
	if h.dir != "" {
		_ = os.RemoveAll(h.dir)
	}
}

const setupRounds = 3 // set-ups per run; setup_s is their median

const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// frameKind says what driver frame i carries.
type frameKind uint8

const (
	frameChurn frameKind = iota
	frameReadRecent
	frameReadNow
)

func (sp spec) frameKind(i int) frameKind {
	if !sp.readMix || i%readPeriod == 0 {
		return frameChurn
	}
	if i%2 == 1 {
		return frameReadRecent
	}
	return frameReadNow
}

// runServer measures one server-* workload with tracing off.
func runServer(sp spec, cfg config) (*result, error) {
	var t tally
	var h *harness
	var gens []*gen
	setups := make([]float64, setupRounds)
	for i := range setups {
		if h != nil {
			h.discard()
		}
		t0 := time.Now()
		var err error
		if h, gens, err = setupServer(sp, cfg, &t); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	defer func() { h.discard() }()

	var phase atomic.Int32
	wins := make([]window, numDrivers)
	var wg sync.WaitGroup
	for d := range gens {
		wg.Add(1)
		go func(g *gen, w *window) {
			defer wg.Done()
			ops := make([]conn.Op, churnOps)
			qs := make([]conn.Edge, readPairs)
			for i := 0; phase.Load() != phaseStop; i++ {
				kind := sp.frameKind(i)
				var ok bool
				var start time.Time
				switch kind {
				case frameChurn:
					g.churnFrame(ops)
					start = time.Now()
					res, err := h.do(ops)
					ok = t.checkMutations(ops, res, err)
				case frameReadRecent:
					g.pairs(qs)
					res, err := h.ns.ReadRecentBatch(qs)
					ok = t.checkReads(len(qs), res, err)
				case frameReadNow:
					g.pairs(qs)
					res, err := h.ns.ReadNowBatch(qs)
					ok = t.checkReads(len(qs), res, err)
				}
				if !ok || phase.Load() != phaseMeasure {
					continue
				}
				if kind == frameChurn {
					end := time.Now()
					w.writeOps += churnOps
					w.queryPairs += churnQry
					w.lat = append(w.lat, sample{end: end, dur: end.Sub(start)})
				} else {
					w.queryPairs += readPairs
				}
			}
		}(gens[d], &wins[d])
	}

	// Durable namespaces checkpoint six times per timed window, from the side.
	var ckpts []sample
	ckptDone := make(chan struct{})
	var ckptWG sync.WaitGroup
	if sp.durable {
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			tick := time.NewTicker(secs(cfg.seconds / 6))
			defer tick.Stop()
			for {
				select {
				case <-ckptDone:
					return
				case <-tick.C:
					t.attempted.Add(1)
					start := time.Now()
					if _, err := h.ns.Checkpoint(); err != nil {
						t.failed.Add(1)
						continue
					}
					end := time.Now()
					ckpts = append(ckpts, sample{end: end, dur: end.Sub(start)})
				}
			}
		}()
	}

	time.Sleep(cfg.warm())
	phase.Store(phaseMeasure)
	t0 := time.Now()
	time.Sleep(secs(cfg.seconds))
	phase.Store(phaseStop)
	elapsed := time.Since(t0).Seconds()
	wg.Wait()
	close(ckptDone)
	ckptWG.Wait()

	var total window
	for _, w := range wins {
		total.writeOps += w.writeOps
		total.queryPairs += w.queryPairs
		total.lat = append(total.lat, w.lat...)
	}
	if len(total.lat) == 0 {
		return nil, errors.New("no write frame completed in the timed window")
	}
	res := endToEnd(sp, setups, float64(total.writeOps)/elapsed, float64(total.queryPairs)/elapsed, total.lat)
	if sp.durable {
		res.Extra["checkpoint.count"] = metric{float64(len(ckpts)), "count"}
		res.Extra["checkpoint.stall_ms"] = metric{stallMs(total.lat, ckpts), "ms"}
	}

	// Oracle: the end state is the union of the drivers' live windows.
	var live []conn.Edge
	for _, g := range gens {
		live = append(live, g.liveEdges()...)
	}
	or := newOracle(cfg, live)
	or.check(&t, h.ns.ReadNowBatch)
	if sp.durable {
		// Acked implies durable: drain, restart on the same directory, and
		// ask again.
		if err := h.stop(); err != nil {
			return nil, fmt.Errorf("drain: %w", err)
		}
		t0 := time.Now()
		if err := h.start(); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		res.Extra["checkpoint.restart_ms"] = metric{ms(time.Since(t0)), "ms"}
		or.check(&t, h.ns.ReadNowBatch)
	}
	res.Attempted, res.Failed = t.attempted.Load(), t.failed.Load()
	return res, nil
}

// runCore measures core-window with tracing off: one caller, conn.Graph only.
func runCore(sp spec, cfg config) (*result, error) {
	var t tally
	var g *conn.Graph
	var gn *gen
	setups := make([]float64, setupRounds)
	for i := range setups {
		t0 := time.Now()
		g, gn = setupCore(cfg, &t)
		setups[i] = time.Since(t0).Seconds()
	}

	ins := make([]conn.Edge, coreBatch)
	del := make([]conn.Edge, coreBatch)
	qs := make([]conn.Edge, coreBatch)
	var tWrite time.Duration
	var rounds int64
	var lat []sample
	var queryMs []float64
	warmEnd := time.Now().Add(cfg.warm())
	stop := warmEnd.Add(secs(cfg.seconds))
	for now := time.Now(); now.Before(stop); now = time.Now() {
		gn.freshBatch(ins)
		gn.oldestBatch(del)
		t0 := time.Now()
		added := g.InsertEdges(ins)
		removed := g.DeleteEdges(del)
		t1 := time.Now()
		t.attempted.Add(2 * coreBatch)
		t.failed.Add(int64(coreBatch-added) + int64(coreBatch-removed))
		measured := !now.Before(warmEnd)
		if measured {
			rounds++
			tWrite += t1.Sub(t0)
			lat = append(lat, sample{end: t1, dur: t1.Sub(t0)})
		}
		for i := 0; i < coreQueryCalls; i++ {
			gn.pairs(qs)
			t0 := time.Now()
			ans := g.ConnectedBatch(qs)
			d := time.Since(t0)
			t.attempted.Add(coreBatch)
			t.failed.Add(int64(coreBatch - len(ans)))
			if measured {
				queryMs = append(queryMs, ms(d))
			}
		}
	}
	if rounds == 0 {
		return nil, errors.New("no round completed in the timed window")
	}
	// A ConnectedBatch takes ~2 ms, and whether a collection happens to run
	// beside it doubles that: the query rate is that of the median call.
	res := endToEnd(sp, setups, float64(2*coreBatch*rounds)/tWrite.Seconds(), coreBatch/(median(queryMs)/1e3), lat)

	newOracle(cfg, gn.liveEdges()).check(&t, func(qs []conn.Edge) ([]bool, error) {
		return g.ConnectedBatch(qs), nil
	})
	t.attempted.Add(1)
	if err := g.CheckInvariants(); err != nil {
		fmt.Fprintln(os.Stderr, "core-window: CheckInvariants:", err)
		t.failed.Add(1)
	}
	res.Attempted, res.Failed = t.attempted.Load(), t.failed.Load()
	return res, nil
}

// setupCore builds a graph and preloads the 2n-edge live window through
// InsertEdges, the call the workload itself uses.
func setupCore(cfg config, t *tally) (*conn.Graph, *gen) {
	g := conn.New(cfg.n)
	win := 2 * cfg.n
	gn := newGen(cfg.seed, 0, 1, cfg.n, win, coreBatch)
	batch := make([]conn.Edge, coreBatch)
	for gn.count < win {
		gn.freshBatch(batch)
		t.attempted.Add(coreBatch)
		t.failed.Add(int64(coreBatch - g.InsertEdges(batch)))
	}
	return g, gn
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// endToEnd builds a run's result with the six gated metrics: the rates as
// given, the write unit's median and 95th percentile (and, ungated, the sample
// count and the tail beyond), and the live heap as of now.
func endToEnd(sp spec, setups []float64, writeRate, queryRate float64, lat []sample) *result {
	res := &result{Workload: sp.name, Metrics: map[string]metric{}, Extra: map[string]metric{}}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["write_ops_per_s"] = metric{writeRate, "1/s"}
	res.Metrics["query_pairs_per_s"] = metric{queryRate, "1/s"}
	res.Metrics["live_heap_mb"] = metric{liveHeapMB(), "MB"}
	ds := make([]float64, len(lat))
	for i, s := range lat {
		ds[i] = ms(s.dur)
	}
	sort.Float64s(ds)
	res.Metrics["write_p50_ms"] = metric{percentile(ds, 50), "ms"}
	res.Metrics["write_p95_ms"] = metric{percentile(ds, 95), "ms"}
	res.Extra["client.write_samples"] = metric{float64(len(ds)), "count"}
	res.Extra["client.write_p99_ms"] = metric{percentile(ds, 99), "ms"}
	res.Extra["client.write_max_ms"] = metric{ds[len(ds)-1], "ms"}
	return res
}

// stallMs is the worst write latency among units in flight during some
// checkpoint, 0 when no checkpoint overlapped a unit.
func stallMs(lat, ckpts []sample) float64 {
	worst := time.Duration(0)
	for _, c := range ckpts {
		cStart := c.end.Add(-c.dur)
		for _, s := range lat {
			if s.dur > worst && s.end.After(cStart) && s.end.Add(-s.dur).Before(c.end) {
				worst = s.dur
			}
		}
	}
	return ms(worst)
}

// liveHeapMB is the heap in use after a forced collection. The live edge set
// is constant in every workload, so this repeats.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
