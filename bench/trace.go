package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	conn "repro"
	"repro/client"
	"repro/internal/checkpoint"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pubsub"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/wal"
	"repro/internal/wire"
)

// span is one timed interval of the traced pass. Spans of one unit share its
// frame id; Parent is the index of the span whose cost contains this one's
// (-1 for the root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Frame  int    `json:"frame_id"`
}

// tracer keeps spans in memory; the run writes them out at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, frame int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Frame: frame})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// The ladder's span tree. The root `client` is the real call. Every other
// span times the same unit replayed against a standalone shadow of one layer,
// one after another, so a child's interval is not inside its parent's; a
// parent link says whose cost contains whose:
//
//	client
//	  wire
//	  shard                       Coordinator.Apply contains an engine's Apply
//	    engine                    Engine.Apply contains the batches and the publish
//	      core.insert core.delete core.query
//	      snapshot
//	  wal.append wal.sync
//	  pubsub
//
// A layer is the part of a span name before the dot.
func layerOf(spanName string) string {
	layer, _, _ := strings.Cut(spanName, ".")
	return layer
}

// ladderLayers are the layers a share is reported for, in print order.
var ladderLayers = []string{"wire", "shard", "engine", "core", "snapshot", "wal", "pubsub"}

// inPath says which layers the workload's real call runs through. A layer
// outside the path is still replayed and its cost reported, with share 0: no
// event subscriber is attached, so pubsub is outside every path.
func (sp spec) inPath(layer string) bool {
	switch layer {
	case "core":
		return true
	case "wire", "engine", "snapshot":
		return sp.server
	case "wal":
		return sp.durable
	case "shard":
		return sp.shards >= 2
	}
	return false
}

// selfTimes returns, per layer, the summed self time: each span's duration
// minus the durations of the spans that name it as parent, floored at zero
// per span.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		if self := s.End - s.Start - child[i]; self > 0 {
			out[layerOf(s.Name)] += time.Duration(self)
		}
	}
	return out
}

// spanTotals returns the summed duration per span name.
func spanTotals(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

// unit is one closed-loop step of a workload: a churn frame (for core-window,
// a round of 4096 inserts, deletes and queries) or a read-tier frame.
type unit struct {
	kind  frameKind
	ops   []conn.Op   // frameChurn
	pairs []conn.Edge // read frames
}

// ladder holds one standalone shadow per layer, each preloaded with the same
// live edges as the system under test, and replays units through their
// exported functions.
type ladder struct {
	n   int
	tr  *tracer
	dir string

	eng   *engine.Engine // over its own core
	c     *core.Conn     // core shadow; store publishes from it
	store *snapshot.Store
	log   *wal.Log
	coord *shard.Coordinator
	buf   bytes.Buffer

	// Work counts behind the per-edge and per-epoch figures; the matching
	// times are the spans' own.
	wireBytes          int64
	walUnits           int64
	insEdges, delEdges int64
	qryPairs           int64
	allocBytes, allocs uint64 // inside core.insert and core.delete
}

func newLadder(cfg config, tr *tracer, live []conn.Edge) (*ladder, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "ladder-")
	if err != nil {
		return nil, err
	}
	l := &ladder{n: cfg.n, tr: tr, dir: dir, c: core.New(cfg.n)}
	if err := l.open(live); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *ladder) open(live []conn.Edge) (err error) {
	if l.eng, err = engine.New(core.New(l.n), engine.Options{}); err != nil {
		return err
	}
	if l.coord, err = shard.New(l.n, 2, shard.Options{}); err != nil {
		return err
	}
	if l.log, err = wal.Open(filepath.Join(l.dir, engine.WALFileName), l.n); err != nil {
		return err
	}
	cops := make([]coalesce.Op, 0, coreBatch)
	for len(live) > 0 {
		k := min(coreBatch, len(live))
		l.c.BatchInsert(live[:k])
		cops = cops[:0]
		for _, e := range live[:k] {
			cops = append(cops, coalesce.Op{Kind: coalesce.OpInsert, U: e.U, V: e.V})
		}
		if _, _, err := l.eng.Apply(cops); err != nil {
			return err
		}
		if _, err := l.coord.Apply(cops); err != nil {
			return err
		}
		live = live[k:]
	}
	l.store = snapshot.NewStore(l.n, 0, l.c)
	return nil
}

// close releases whatever open got as far as opening. The shadows hold no
// state anyone restores from, so their close errors change nothing.
func (l *ladder) close() {
	if l.eng != nil {
		_ = l.eng.Close()
	}
	if l.coord != nil {
		_ = l.coord.Close()
	}
	if l.log != nil {
		_ = l.log.Close()
	}
	_ = os.RemoveAll(l.dir)
}

// replay runs one unit through every layer's shadow, one span each. res is
// the real call's answer, which the wire shadow encodes as the response.
func (l *ladder) replay(frame, root int, u *unit, res []bool) error {
	span := func(name string, parent int, f func()) int {
		id := l.tr.begin(name, parent, frame)
		f()
		l.tr.end(id)
		return id
	}
	var cops []coalesce.Op
	var ins, del, qs []conn.Edge
	req := &wire.Request{ID: uint64(frame), NS: nsName}
	switch u.kind {
	case frameChurn:
		req.Cmd = wire.CmdBatch
		for _, op := range u.ops {
			e := conn.Edge{U: op.U, V: op.V}
			switch op.Kind {
			case conn.OpInsert:
				ins = append(ins, e)
			case conn.OpDelete:
				del = append(del, e)
			default:
				qs = append(qs, e)
			}
			cops = append(cops, coalesce.Op{Kind: coalesce.Kind(op.Kind), U: op.U, V: op.V})
			req.Ops = append(req.Ops, wire.Op{Kind: wire.Kind(op.Kind), U: op.U, V: op.V})
		}
	case frameReadRecent, frameReadNow:
		req.Cmd = wire.CmdReadNow
		if u.kind == frameReadRecent {
			req.Cmd = wire.CmdReadRecent
		}
		qs = u.pairs
		for _, p := range qs {
			req.Pairs = append(req.Pairs, wire.Pair{U: p.U, V: p.V})
		}
	}
	lookups := func(lbl *snapshot.Labels) {
		for _, p := range qs {
			lbl.Connected(p.U, p.V)
		}
	}

	var err error
	span("wire", root, func() { err = l.wireRoundTrip(req, res) })
	if err != nil {
		return err
	}
	shardID := span("shard", root, func() {
		if u.kind == frameChurn {
			_, err = l.coord.Apply(cops)
		} else {
			_, err = l.coord.ConnectedBatch(qs)
		}
	})
	if err != nil {
		return err
	}
	engID := span("engine", shardID, func() {
		switch u.kind {
		case frameChurn:
			_, _, err = l.eng.Apply(cops)
		case frameReadNow:
			_, err = l.eng.ReadNowBatch(qs)
		default:
			lookups(l.eng.Recent())
		}
	})
	if err != nil {
		return err
	}

	// The core's batches, and the dirty set the engine would hand the
	// publisher: endpoints of inserts that join two published components and
	// of deletes that cut a tree edge.
	var touched []int32
	if u.kind == frameChurn {
		mutate := func(name string, es []conn.Edge, batch func([]conn.Edge) int) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			span(name, engID, func() { batch(es) })
			runtime.ReadMemStats(&m1)
			l.allocBytes += m1.TotalAlloc - m0.TotalAlloc
			l.allocs += m1.Mallocs - m0.Mallocs
		}
		lbl := l.store.Current()
		for _, e := range ins {
			if !lbl.Connected(e.U, e.V) {
				touched = append(touched, e.U, e.V)
			}
		}
		mutate("core.insert", ins, l.c.BatchInsert)
		for _, e := range del {
			if _, tree := l.c.EdgeInfo(e.U, e.V); tree {
				touched = append(touched, e.U, e.V)
			}
		}
		mutate("core.delete", del, l.c.BatchDelete)
		l.insEdges += int64(len(ins))
		l.delEdges += int64(len(del))
	}
	if u.kind != frameReadRecent {
		span("core.query", engID, func() { l.c.BatchConnected(qs) })
		l.qryPairs += int64(len(qs))
	}
	switch u.kind {
	case frameReadNow:
		return nil
	case frameReadRecent:
		span("snapshot", engID, func() { lookups(l.store.Current()) })
		return nil
	}

	var diff *snapshot.Diff
	// This goroutine is the only one that touches the shadow store and its
	// core: it is their dispatcher.
	span("snapshot", engID, func() { diff = l.store.Publish(touched) }) //conn:dispatcher-entry
	if diff != nil {
		span("pubsub", root, func() { pubsub.Derive(diff, 0) })
	}
	span("wal.append", root, func() {
		_, _, err = l.log.AppendRecord(wal.Record{Seq: l.log.LastSeq() + 1, Ins: ins, Del: del})
	})
	if err != nil {
		return err
	}
	span("wal.sync", root, func() { err = l.log.Sync() })
	l.walUnits++
	return err
}

// wireRoundTrip pushes the request and the response through the codec and
// the framing, over a buffer in place of the socket.
func (l *ladder) wireRoundTrip(req *wire.Request, res []bool) error {
	p, err := wire.EncodeRequest(req)
	if err != nil {
		return err
	}
	if err := l.frame(p, func(q []byte) error { _, err := wire.DecodeRequest(q); return err }); err != nil {
		return err
	}
	if p, err = wire.EncodeResponse(&wire.Response{ID: req.ID, Bits: res}); err != nil {
		return err
	}
	return l.frame(p, func(q []byte) error { _, err := wire.DecodeResponse(q); return err })
}

func (l *ladder) frame(payload []byte, decode func([]byte) error) error {
	l.buf.Reset()
	if err := wire.WriteFrame(&l.buf, payload); err != nil {
		return err
	}
	l.wireBytes += int64(l.buf.Len())
	q, err := wire.ReadFrame(&l.buf)
	if err != nil {
		return err
	}
	return decode(q)
}

// checkpointShadow writes the core shadow's edge set as a checkpoint and
// restores a structure from it, timing both.
func (l *ladder) checkpointShadow() (writeMs, restoreMs float64, size int64, err error) {
	dir := filepath.Join(l.dir, "ckpt")
	if err = os.Mkdir(dir, 0o755); err != nil {
		return
	}
	t0 := time.Now()
	edges := append(l.c.SpanningForest(), l.c.NonTreeEdges()...)
	path, err := checkpoint.Write(dir, checkpoint.Snapshot{Seq: 1, N: l.n, Edges: edges})
	if err != nil {
		return
	}
	writeMs = ms(time.Since(t0))
	st, err := os.Stat(path)
	if err != nil {
		return
	}
	t0 = time.Now()
	if _, err = engine.Restore(dir, func(n int) *core.Conn { return core.New(n) }); err != nil {
		return
	}
	return writeMs, ms(time.Since(t0)), st.Size(), nil
}

// ladderReport is the traced pass's table: per layer the self time per unit
// and its share of the real call, and the counts that repeat exactly for a
// given seed and -seconds.
type ladderReport struct {
	Units         int              `json:"units"`
	ClientUs      float64          `json:"client_us_per_unit"`
	Layers        []ladderRow      `json:"layers"`
	Unattributed  float64          `json:"unattributed_share"`
	TraceOverhead float64          `json:"trace_overhead_share"`
	Counts        map[string]int64 `json:"exact_repeat_counts"`
	TraceFile     string           `json:"trace_file"`
}

type ladderRow struct {
	Layer  string  `json:"layer"`
	SelfUs float64 `json:"self_us_per_unit"`
	Share  float64 `json:"share"`
	InPath bool    `json:"in_path"`
}

func (r *ladderReport) print() {
	fmt.Printf("  layer ladder over %d units, client %.1f us/unit (share = self time / client, 0 outside the workload's path)\n",
		r.Units, r.ClientUs)
	for _, row := range r.Layers {
		fmt.Printf("    %-10s self %12.2f us/unit  share %.4f  in_path=%v\n", row.Layer, row.SelfUs, row.Share, row.InPath)
	}
	fmt.Printf("    unattributed_share %.4f  trace_overhead_share %.4f\n", r.Unattributed, r.TraceOverhead)
	fmt.Printf("  exact-repeat counts:")
	for _, k := range sortedKeys(r.Counts) {
		fmt.Printf(" %s=%d", k, r.Counts[k])
	}
	fmt.Printf("\n  spans written to %s\n", r.TraceFile)
}

// subject is the system under test as the single-driver passes see it.
type subject struct {
	next  func(i int) *unit
	call  func(u *unit) ([]bool, error)
	live  func() []conn.Edge                   // expected live edges now
	ask   func(qs []conn.Edge) ([]bool, error) // read-committed batch query
	stats func() (wire.Stats, error)           // real pipeline counters
	close func()
}

func newSubject(sp spec, cfg config, t *tally) (*subject, error) {
	if !sp.server {
		g, gn := setupCore(cfg, t)
		u := &unit{kind: frameChurn, ops: make([]conn.Op, 3*coreBatch)}
		es := make([]conn.Edge, coreBatch)
		fill := func(ops []conn.Op, kind conn.OpKind) {
			for i, e := range es {
				ops[i] = conn.Op{Kind: kind, U: e.U, V: e.V}
			}
		}
		ins, del, qs := make([]conn.Edge, coreBatch), make([]conn.Edge, coreBatch), make([]conn.Edge, coreBatch)
		return &subject{
			next: func(int) *unit {
				gn.freshBatch(es)
				fill(u.ops[:coreBatch], conn.OpInsert)
				gn.oldestBatch(es)
				fill(u.ops[coreBatch:2*coreBatch], conn.OpDelete)
				gn.pairs(es)
				fill(u.ops[2*coreBatch:], conn.OpQuery)
				return u
			},
			call: func(u *unit) ([]bool, error) {
				for i := range ins {
					ins[i] = conn.Edge{U: u.ops[i].U, V: u.ops[i].V}
					del[i] = conn.Edge{U: u.ops[coreBatch+i].U, V: u.ops[coreBatch+i].V}
					qs[i] = conn.Edge{U: u.ops[2*coreBatch+i].U, V: u.ops[2*coreBatch+i].V}
				}
				// conn.Graph credits a batch, not an op: mark that many done.
				res := make([]bool, 2*coreBatch, len(u.ops))
				for i := range g.InsertEdges(ins) {
					res[i] = true
				}
				for i := range g.DeleteEdges(del) {
					res[coreBatch+i] = true
				}
				return append(res, g.ConnectedBatch(qs)...), nil
			},
			live:  gn.liveEdges,
			ask:   func(qs []conn.Edge) ([]bool, error) { return g.ConnectedBatch(qs), nil },
			stats: func() (wire.Stats, error) { return wire.Stats{}, nil },
			close: func() {},
		}, nil
	}
	h, gens, err := setupServer(sp, cfg, t)
	if err != nil {
		return nil, err
	}
	// Every driver's window is preloaded so the graph has the workload's
	// shape; only driver 0's stream runs, one frame in flight.
	g := gens[0]
	u := &unit{ops: make([]conn.Op, churnOps), pairs: make([]conn.Edge, readPairs)}
	return &subject{
		next: func(i int) *unit {
			if u.kind = sp.frameKind(i); u.kind == frameChurn {
				g.churnFrame(u.ops)
			} else {
				g.pairs(u.pairs)
			}
			return u
		},
		call: func(u *unit) ([]bool, error) {
			switch u.kind {
			case frameChurn:
				return h.do(u.ops)
			case frameReadRecent:
				return h.ns.ReadRecentBatch(u.pairs)
			}
			return h.ns.ReadNowBatch(u.pairs)
		},
		live: func() []conn.Edge {
			var live []conn.Edge
			for _, g := range gens {
				live = append(live, g.liveEdges()...)
			}
			return live
		},
		ask:   h.ns.ReadNowBatch,
		stats: h.ns.Stats,
		close: h.discard,
	}, nil
}

// check charges one unit's outcome to t.
func (u *unit) check(t *tally, res []bool, err error) bool {
	if u.kind == frameChurn {
		return t.checkMutations(u.ops, res, err)
	}
	return t.checkReads(len(u.pairs), res, err)
}

// runTraced is the -trace 1 pass: one driver, one unit in flight, a fixed
// number of units so that every count repeats. Each unit's real call is the
// root span; the unit is then replayed through the ladder. A second, untraced
// stretch of the same length over the same system gives the tracing overhead
// and the process-wide allocation figures.
//
// A write unit costs tens of milliseconds here and the ladder replays it four
// times, so eight write units per second of -seconds is what fits in about
// -seconds of wall time.
func runTraced(sp spec, cfg config) (*result, error) {
	units := int(8 * cfg.seconds)
	switch {
	case !sp.server:
		units = max(2, int(0.6*cfg.seconds)) // a round is 8192 mutations
	case sp.readMix:
		units *= readPeriod
	}
	var t tally
	sub, err := newSubject(sp, cfg, &t)
	if err != nil {
		return nil, err
	}
	defer sub.close()
	tr := &tracer{t0: time.Now()}
	lad, err := newLadder(cfg, tr, sub.live())
	if err != nil {
		return nil, err
	}
	defer lad.close()

	st0, err := sub.stats()
	if err != nil {
		return nil, err
	}
	var boundary, mutations, tracedOps int64
	for i := 0; i < units; i++ {
		u := sub.next(i)
		root := tr.begin("client", -1, i)
		res, err := sub.call(u)
		tr.end(root)
		if !u.check(&t, res, err) {
			return nil, fmt.Errorf("traced unit %d failed: %v", i, err)
		}
		tracedOps += int64(len(res))
		if err := lad.replay(i, root, u, res); err != nil {
			return nil, fmt.Errorf("ladder replay of unit %d: %w", i, err)
		}
		if u.kind == frameChurn {
			for _, op := range u.ops {
				if op.Kind != conn.OpQuery {
					mutations++
					if client.Partition(op.U, 2) != client.Partition(op.V, 2) {
						boundary++
					}
				}
			}
		}
	}
	st1, err := sub.stats()
	if err != nil {
		return nil, err
	}

	// The shadows replayed the same stream from the same preload, so they
	// must agree with the same oracle as the system under test.
	or := newOracle(cfg, sub.live())
	or.check(&t, sub.ask)
	or.check(&t, func(qs []conn.Edge) ([]bool, error) { return lad.c.BatchConnected(qs), nil })
	or.check(&t, lad.eng.ReadNowBatch)
	or.check(&t, lad.coord.ConnectedBatch)
	ckWrite, ckRestore, ckBytes, err := lad.checkpointShadow()
	if err != nil {
		return nil, fmt.Errorf("checkpoint shadow: %w", err)
	}

	// Untraced stretch: same units, no spans, no replays.
	cpu0 := readCPU()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var plainTotal time.Duration
	var plainOps int64
	for i := units; i < 2*units; i++ {
		u := sub.next(i)
		t0 := time.Now()
		res, err := sub.call(u)
		plainTotal += time.Since(t0)
		if !u.check(&t, res, err) {
			return nil, fmt.Errorf("untraced unit %d failed: %v", i, err)
		}
		plainOps += int64(len(res))
	}
	runtime.ReadMemStats(&m1)
	cpu1 := readCPU()
	newOracle(cfg, sub.live()).check(&t, sub.ask)

	total := spanTotals(tr.spans)
	clientTotal := total["client"]
	rep := &ladderReport{
		Units:         units,
		ClientUs:      us(clientTotal) / float64(units),
		TraceOverhead: float64(clientTotal-plainTotal) / float64(plainTotal),
		TraceFile:     filepath.Join(cfg.outDir, "trace-"+sp.name+".json"),
	}
	self := selfTimes(tr.spans)
	res := &result{Workload: sp.name, Metrics: map[string]metric{}, Ladder: rep}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("client.us_per_frame", rep.ClientUs, "us")
	attributed := 0.0
	for _, layer := range ladderLayers {
		row := ladderRow{Layer: layer, SelfUs: us(self[layer]) / float64(units), InPath: sp.inPath(layer)}
		if row.InPath {
			row.Share = row.SelfUs / rep.ClientUs
			attributed += row.Share
		}
		rep.Layers = append(rep.Layers, row)
		put(layer+".self_us_per_frame", row.SelfUs, "us")
		put(layer+".share", row.Share, "share")
	}
	rep.Unattributed = 1 - attributed
	put("unattributed_share", rep.Unattributed, "share")
	put("trace_overhead_share", rep.TraceOverhead, "share")

	put("core.insert_us_per_edge", us(total["core.insert"])/float64(lad.insEdges), "us")
	put("core.delete_us_per_edge", us(total["core.delete"])/float64(lad.delEdges), "us")
	put("core.query_ns_per_pair", float64(total["core.query"].Nanoseconds())/float64(lad.qryPairs), "ns")
	put("core.alloc_bytes_per_edge", float64(lad.allocBytes)/float64(lad.insEdges+lad.delEdges), "B")
	put("core.allocs_per_edge", float64(lad.allocs)/float64(lad.insEdges+lad.delEdges), "count")
	put("wal.append_us_per_epoch", us(total["wal.append"])/float64(lad.walUnits), "us")
	put("wal.sync_us_per_epoch", us(total["wal.sync"])/float64(lad.walUnits), "us")
	put("wire.bytes_per_op", float64(lad.wireBytes)/float64(tracedOps), "B")
	put("shard.boundary_share", float64(boundary)/float64(mutations), "share")
	put("checkpoint.write_ms", ckWrite, "ms")
	put("checkpoint.restore_ms", ckRestore, "ms")
	put("checkpoint.bytes", float64(ckBytes), "B")

	// From the real pipeline's own counters, over the traced units (all zero
	// on core-window, which has no pipeline).
	rep.Counts = map[string]int64{
		"frames":                 int64(units),
		"epochs":                 int64(st1.Epochs - st0.Epochs),
		"ops":                    int64(st1.Ops - st0.Ops),
		"wal.fsyncs":             int64(st1.WALFsyncs - st0.WALFsyncs),
		"wal.bytes_raw":          int64(st1.WALRawBytes - st0.WALRawBytes),
		"wal.bytes_encoded":      int64(st1.WALBytes - st0.WALBytes),
		"wire.bytes":             lad.wireBytes,
		"snapshot.publishes":     int64(st1.SnapshotPublishes - st0.SnapshotPublishes),
		"snapshot.full_rebuilds": int64(st1.SnapshotRebuilds - st0.SnapshotRebuilds),
	}
	ratio := func(num, den string) float64 {
		if rep.Counts[den] == 0 {
			return 0
		}
		return float64(rep.Counts[num]) / float64(rep.Counts[den])
	}
	put("engine.ops_per_epoch", ratio("ops", "epochs"), "count")
	put("wal.fsyncs_per_epoch", ratio("wal.fsyncs", "epochs"), "count")
	put("wal.raw_bytes_per_op", ratio("wal.bytes_raw", "ops"), "B")
	put("wal.encoded_bytes_per_op", ratio("wal.bytes_encoded", "ops"), "B")
	put("snapshot.publishes", float64(rep.Counts["snapshot.publishes"]), "count")
	put("snapshot.full_rebuilds", float64(rep.Counts["snapshot.full_rebuilds"]), "count")

	// Process-wide, over the untraced stretch.
	put("alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(plainOps), "B")
	put("allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(plainOps), "count")
	put("gc_cpu_share", (cpu1.gc-cpu0.gc)/(cpu1.total-cpu0.total), "share")

	if err := writeTrace(rep.TraceFile, sp.name, tr.spans); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = t.attempted.Load(), t.failed.Load()
	return res, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

type cpuSeconds struct{ gc, total float64 }

// readCPU samples the runtime's CPU accounting. The runtime refreshes it only
// when a collection ends, so this forces one first; the stretch between two
// samples therefore includes one forced collection.
func readCPU() cpuSeconds {
	runtime.GC()
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuSeconds{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

func writeTrace(path, workload string, spans []span) error {
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
