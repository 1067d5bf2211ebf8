package shard

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/coalesce"
	"repro/internal/graph"
	"repro/internal/unionfind"
)

// applyOne applies a single insert or delete and returns its credit.
func applyOne(t *testing.T, c *Coordinator, kind coalesce.Kind, u, v int32) bool {
	t.Helper()
	res, err := c.Apply([]coalesce.Op{{Kind: kind, U: u, V: v}})
	if err != nil {
		t.Fatalf("apply %v {%d,%d}: %v", kind, u, v, err)
	}
	return res[0]
}

// connected answers one pair from the composed labelling.
func connected(t *testing.T, c *Coordinator, u, v int32) bool {
	t.Helper()
	ans, err := c.ConnectedBatch([]graph.Edge{{U: u, V: v}})
	if err != nil {
		t.Fatalf("connected {%d,%d}: %v", u, v, err)
	}
	return ans[0]
}

// oracle is a sequential model of the combined edge set with the same batch
// semantics as Coordinator.Apply: inserts first (first staging of an absent
// edge gets credit), then deletes (against the post-insert set), then
// queries (connectivity of the post-update set).
type oracle struct {
	n     int
	edges map[uint64]bool
}

func newOracle(n int) *oracle { return &oracle{n: n, edges: map[uint64]bool{}} }

func (o *oracle) apply(ops []coalesce.Op) []bool {
	res := make([]bool, len(ops))
	for i, op := range ops {
		if op.Kind != coalesce.OpInsert || op.U == op.V {
			continue
		}
		if k := (graph.Edge{U: op.U, V: op.V}).Key(); !o.edges[k] {
			o.edges[k] = true
			res[i] = true
		}
	}
	for i, op := range ops {
		if op.Kind != coalesce.OpDelete || op.U == op.V {
			continue
		}
		if k := (graph.Edge{U: op.U, V: op.V}).Key(); o.edges[k] {
			delete(o.edges, k)
			res[i] = true
		}
	}
	var uf *unionfind.UF
	for i, op := range ops {
		if op.Kind != coalesce.OpQuery {
			continue
		}
		if uf == nil {
			uf = o.uf()
		}
		res[i] = uf.Connected(op.U, op.V)
	}
	return res
}

func (o *oracle) uf() *unionfind.UF {
	uf := unionfind.New(o.n)
	for k := range o.edges {
		e := graph.FromKey(k)
		uf.Union(e.U, e.V)
	}
	return uf
}

func randOps(rng *rand.Rand, n, count int) []coalesce.Op {
	ops := make([]coalesce.Op, count)
	for i := range ops {
		kind := coalesce.OpInsert
		switch r := rng.Intn(100); {
		case r < 45:
			kind = coalesce.OpInsert
		case r < 75:
			kind = coalesce.OpDelete
		default:
			kind = coalesce.OpQuery
		}
		ops[i] = coalesce.Op{Kind: kind, U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	return ops
}

// TestShardedDifferential drives a randomized mixed workload through
// Coordinators with 1, 2 and 4 shards and checks every result — update
// credit and query answers — against the sequential oracle. The vertex
// universe is small relative to the operation count, so components merge
// and split constantly, and with k >= 2 a large fraction of the edges are
// cross-shard: deletions routinely sever components THROUGH the boundary
// graph, which is exactly the composition path under test.
func TestShardedDifferential(t *testing.T) {
	rounds := 400
	if testing.Short() {
		rounds = 120
	}
	for _, k := range []int{1, 2, 4} {
		t.Run(map[int]string{1: "k=1", 2: "k=2", 4: "k=4"}[k], func(t *testing.T) {
			const n = 96
			c, err := New(n, k, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			o := newOracle(n)
			rng := rand.New(rand.NewSource(int64(7000 + k)))
			for r := 0; r < rounds; r++ {
				ops := randOps(rng, n, 1+rng.Intn(16))
				got, err := c.Apply(ops)
				if err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				want := o.apply(ops)
				for i := range ops {
					if got[i] != want[i] {
						t.Fatalf("round %d op %d (%+v): got %v, oracle says %v",
							r, i, ops[i], got[i], want[i])
					}
				}
			}
			// Full pairwise sweep at the end: every pair, coordinator vs
			// oracle, through ConnectedBatch's scatter-gather path.
			uf := o.uf()
			var qs []graph.Edge
			for u := int32(0); u < n; u++ {
				for v := u; v < n; v++ {
					qs = append(qs, graph.Edge{U: u, V: v})
				}
			}
			ans, err := c.ConnectedBatch(qs)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				if want := uf.Connected(q.U, q.V); ans[i] != want {
					t.Fatalf("final sweep {%d,%d}: got %v, want %v", q.U, q.V, ans[i], want)
				}
			}
		})
	}
}

// TestCrossShardSplit pins the boundary-graph composition deterministically:
// a component assembled purely from cross-shard edges is split by deleting
// one of them, and the two halves must stop being connected even though no
// shard-local engine observed any change.
func TestCrossShardSplit(t *testing.T) {
	const n = 64
	const k = 4
	c, err := New(n, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Build a path v0 - v1 - v2 - v3 where consecutive vertices live on
	// different shards (cross-shard edges only).
	var path []int32
	next := int32(0)
	for len(path) < 4 {
		if len(path) == 0 || Partition(next, k) != Partition(path[len(path)-1], k) {
			path = append(path, next)
		}
		next++
	}
	for i := 0; i+1 < len(path); i++ {
		if !applyOne(t, c, coalesce.OpInsert, path[i], path[i+1]) {
			t.Fatalf("insert {%d,%d}: not credited", path[i], path[i+1])
		}
	}
	if !connected(t, c, path[0], path[3]) {
		t.Fatal("path endpoints not connected after cross-shard inserts")
	}
	// Sever the middle cross-shard edge: the component must split through
	// the boundary graph.
	if !applyOne(t, c, coalesce.OpDelete, path[1], path[2]) {
		t.Fatal("delete middle edge: not credited")
	}
	if connected(t, c, path[0], path[3]) {
		t.Fatal("endpoints still connected after boundary split")
	}
	if !connected(t, c, path[0], path[1]) {
		t.Fatal("left half lost its own edge")
	}
	if !connected(t, c, path[2], path[3]) {
		t.Fatal("right half lost its own edge")
	}

	// Reconnect through a different boundary route and verify the index
	// follows (rebuild after every mutation batch).
	if !applyOne(t, c, coalesce.OpInsert, path[0], path[3]) {
		t.Fatal("reinsert: not credited")
	}
	if !connected(t, c, path[1], path[2]) {
		t.Fatal("reconnect through new boundary edge not observed")
	}
}

// TestShardedDurableRestore round-trips a sharded durable directory:
// workload → close → reopen (per-shard checkpoint/WAL restore) → the
// reopened coordinator must answer exactly like the oracle, including
// after a mid-history checkpoint truncated the logs.
func TestShardedDurableRestore(t *testing.T) {
	const n = 80
	const k = 4
	dir := t.TempDir()
	c, err := New(n, k, Options{DurDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(n)
	rng := rand.New(rand.NewSource(99))
	run := func(rounds int) {
		for r := 0; r < rounds; r++ {
			ops := randOps(rng, n, 1+rng.Intn(12))
			got, err := c.Apply(ops)
			if err != nil {
				t.Fatal(err)
			}
			want := o.apply(ops)
			for i := range ops {
				if got[i] != want[i] {
					t.Fatalf("round %d op %d: got %v want %v", r, i, got[i], want[i])
				}
			}
		}
	}
	run(60)
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	run(60)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: every shard restores independently (checkpoint + WAL tail).
	c, err = New(n, k, Options{DurDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c.Close()
	uf := o.uf()
	var qs []graph.Edge
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			qs = append(qs, graph.Edge{U: u, V: v})
		}
	}
	ans, err := c.ConnectedBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if want := uf.Connected(q.U, q.V); ans[i] != want {
			t.Fatalf("after restore {%d,%d}: got %v want %v", q.U, q.V, ans[i], want)
		}
	}

	// The meta pin must reject a mismatched shard count.
	if _, err := New(n, 2, Options{DurDir: dir}); err == nil {
		t.Fatal("reopen with wrong shard count did not fail")
	}
	if _, err := New(n*2, k, Options{DurDir: dir}); err == nil {
		t.Fatal("reopen with wrong n did not fail")
	}
}

// TestShardMetaRoundTrip covers the meta file directly.
func TestShardMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, _, found, err := ReadMeta(dir); err != nil || found {
		t.Fatalf("fresh dir: found=%v err=%v", found, err)
	}
	if err := writeMeta(dir, 4, 1024); err != nil {
		t.Fatal(err)
	}
	k, n, found, err := ReadMeta(dir)
	if err != nil || !found || k != 4 || n != 1024 {
		t.Fatalf("ReadMeta = (%d,%d,%v,%v), want (4,1024,true,nil)", k, n, found, err)
	}
	if _, _, _, err := ReadMeta(filepath.Join(dir, "nope")); err != nil {
		t.Fatalf("missing dir should read as not-found, got %v", err)
	}
}

// TestShardedConcurrentSmoke hammers one Coordinator from many goroutines
// under the race detector: random mixed batches, scatter-gather queries and
// index rebuilds all interleave. Afterwards a sequential phase verifies the
// coordinator still answers deterministic traffic correctly.
func TestShardedConcurrentSmoke(t *testing.T) {
	const n = 128
	const k = 4
	perG := 300
	if testing.Short() {
		perG = 80
	}
	c, err := New(n, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
			for i := 0; i < perG; i++ {
				if _, err := c.Apply(randOps(rng, n, 1+rng.Intn(8))); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Deterministic epilogue on vertices the random phase may have touched:
	// force a known state and verify it end to end.
	probe := []coalesce.Op{
		{Kind: coalesce.OpInsert, U: 0, V: 1},
		{Kind: coalesce.OpInsert, U: 1, V: 2},
		{Kind: coalesce.OpQuery, U: 0, V: 2},
	}
	res, err := c.Apply(probe)
	if err != nil {
		t.Fatal(err)
	}
	if !res[2] {
		t.Fatal("0 and 2 not connected after inserting {0,1},{1,2}")
	}
}

// TestLastBoundaryEdgeDelete pins the case the chaos harness's shard oracle
// depends on: two shards joined by exactly one remaining boundary edge.
// Deleting a redundant cross-shard edge must keep the composed component
// intact; deleting the LAST one must split it — the boundary index has no
// shard-local evidence to fall back on.
func TestLastBoundaryEdgeDelete(t *testing.T) {
	const n = 64
	const k = 2
	c, err := New(n, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two vertices per shard: a0,a1 on one shard, b0,b1 on the other.
	var a, b []int32
	for v := int32(0); v < n && (len(a) < 2 || len(b) < 2); v++ {
		if Partition(v, k) == 0 && len(a) < 2 {
			a = append(a, v)
		} else if Partition(v, k) == 1 && len(b) < 2 {
			b = append(b, v)
		}
	}
	mustDo := func(kind coalesce.Kind, u, v int32) {
		if !applyOne(t, c, kind, u, v) {
			t.Fatalf("op %v {%d,%d}: not credited", kind, u, v)
		}
	}
	// Intra-shard spines plus two parallel boundary edges between the pair.
	mustDo(coalesce.OpInsert, a[0], a[1])
	mustDo(coalesce.OpInsert, b[0], b[1])
	mustDo(coalesce.OpInsert, a[0], b[0])
	mustDo(coalesce.OpInsert, a[1], b[1])

	if !connected(t, c, a[0], b[1]) {
		t.Fatal("component not assembled across the boundary")
	}
	// Drop the redundant boundary edge: still one component via a1-b1.
	mustDo(coalesce.OpDelete, a[0], b[0])
	if !connected(t, c, a[0], b[1]) {
		t.Fatal("severed after deleting a REDUNDANT boundary edge")
	}
	// Drop the last boundary edge: the shard pair must disconnect entirely.
	mustDo(coalesce.OpDelete, a[1], b[1])
	for _, q := range []graph.Edge{{U: a[0], V: b[0]}, {U: a[0], V: b[1]}, {U: a[1], V: b[0]}, {U: a[1], V: b[1]}} {
		if connected(t, c, q.U, q.V) {
			t.Fatalf("{%d,%d} still connected after last boundary edge was deleted", q.U, q.V)
		}
	}
	// Each side keeps its intra-shard spine.
	if !connected(t, c, a[0], a[1]) {
		t.Fatal("left shard lost its intra-shard edge")
	}
	if !connected(t, c, b[0], b[1]) {
		t.Fatal("right shard lost its intra-shard edge")
	}
	// And one reinsert reconnects everything.
	mustDo(coalesce.OpInsert, a[0], b[1])
	if !connected(t, c, a[1], b[0]) {
		t.Fatal("reinsert of a boundary edge did not reconnect the component")
	}
}

// TestCrossShardPairChurnOneEpoch stresses re-insert/delete churn of the
// SAME cross-shard pairs inside single Apply batches: the epoch semantics
// (inserts staged first, then deletes against the post-insert set) must
// hold for boundary edges exactly as for shard-local ones, both for the
// per-op credit and for the surviving edge set. Every batch and the final
// sweep are checked against the sequential oracle.
func TestCrossShardPairChurnOneEpoch(t *testing.T) {
	const n = 64
	const k = 4
	c, err := New(n, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	o := newOracle(n)

	// A handful of fixed cross-shard pairs; all churn happens on these.
	var pairs []graph.Edge
	for u := int32(0); u < n && len(pairs) < 4; u++ {
		for v := u + 1; v < n && len(pairs) < 4; v++ {
			if Partition(u, k) != Partition(v, k) {
				pairs = append(pairs, graph.Edge{U: u, V: v})
				break
			}
		}
	}

	check := func(desc string, ops []coalesce.Op) {
		t.Helper()
		got, err := c.Apply(ops)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		want := o.apply(ops)
		for i := range ops {
			if got[i] != want[i] {
				t.Fatalf("%s op %d (%+v): got %v, oracle says %v", desc, i, ops[i], got[i], want[i])
			}
		}
	}

	p0, p1 := pairs[0], pairs[1]
	// Insert and delete of the same boundary edge in one epoch: the insert
	// is credited, the delete removes it, the post-update query sees the
	// other pair's edge only.
	check("ins+del same pair", []coalesce.Op{
		{Kind: coalesce.OpInsert, U: p0.U, V: p0.V},
		{Kind: coalesce.OpDelete, U: p0.U, V: p0.V},
		{Kind: coalesce.OpInsert, U: p1.U, V: p1.V},
		{Kind: coalesce.OpQuery, U: p0.U, V: p0.V},
		{Kind: coalesce.OpQuery, U: p1.U, V: p1.V},
	})
	// Delete written before insert in program order still applies as
	// insert-then-delete: the edge must NOT survive the epoch.
	check("del-before-ins same pair", []coalesce.Op{
		{Kind: coalesce.OpDelete, U: p0.U, V: p0.V},
		{Kind: coalesce.OpInsert, U: p0.U, V: p0.V},
		{Kind: coalesce.OpQuery, U: p0.U, V: p0.V},
	})
	// Duplicate staging: only the first insert of an absent edge and the
	// first delete of a present one get credit.
	check("duplicate staging", []coalesce.Op{
		{Kind: coalesce.OpInsert, U: p0.U, V: p0.V},
		{Kind: coalesce.OpInsert, U: p0.U, V: p0.V},
		{Kind: coalesce.OpDelete, U: p0.U, V: p0.V},
		{Kind: coalesce.OpDelete, U: p0.U, V: p0.V},
	})

	// Randomized churn confined to the fixed cross-shard pairs, so the same
	// boundary edges flap constantly within and across epochs.
	rng := rand.New(rand.NewSource(4242))
	for r := 0; r < 200; r++ {
		count := 1 + rng.Intn(6)
		ops := make([]coalesce.Op, count)
		for i := range ops {
			p := pairs[rng.Intn(len(pairs))]
			kind := coalesce.OpInsert
			switch x := rng.Intn(10); {
			case x < 4:
				kind = coalesce.OpDelete
			case x < 6:
				kind = coalesce.OpQuery
			}
			ops[i] = coalesce.Op{Kind: kind, U: p.U, V: p.V}
		}
		check("churn", ops)
	}
	// Full pairwise sweep against the oracle's union-find.
	uf := o.uf()
	var qs []graph.Edge
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			qs = append(qs, graph.Edge{U: u, V: v})
		}
	}
	ans, err := c.ConnectedBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if want := uf.Connected(q.U, q.V); ans[i] != want {
			t.Fatalf("final sweep {%d,%d}: got %v, want %v", q.U, q.V, ans[i], want)
		}
	}
}
