// Differential tests for the live event stream: a union-find oracle replays
// every batch, recomputes the canonical min-vertex labelling, and the pushed
// event stream must match the oracle's partition changes exactly, event for
// event (one batch = one epoch = one transition).
//
// Synchronization uses the stream's own ordering guarantee: a beacon edge
// between two sentinel vertices is toggled after each batch, and because
// transitions are delivered in commit order — and the beacon pair is last in
// the watch order — seeing the beacon flip means the round's events have all
// arrived.
package server

import (
	"sort"
	"testing"
	"time"

	conn "repro"
	"repro/client"
	"repro/internal/pubsub"
	"repro/internal/snapshot"
	"repro/internal/unionfind"
)

// evOracle is the replayed ground truth: a plain edge set with canonical
// min-vertex labellings computed from scratch by union-find.
type evOracle struct {
	n     int
	edges map[[2]int32]bool
}

func newEvOracle(n int) *evOracle {
	return &evOracle{n: n, edges: make(map[[2]int32]bool)}
}

func ekey(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

func (o *evOracle) apply(insert bool, es []conn.Edge) {
	for _, e := range es {
		if insert {
			o.edges[ekey(e.U, e.V)] = true
		} else {
			delete(o.edges, ekey(e.U, e.V))
		}
	}
}

// labels recomputes the full min-vertex labelling. Ascending scan makes the
// first vertex seen per root the component minimum.
func (o *evOracle) labels() []int32 {
	uf := unionfind.New(o.n)
	for e := range o.edges {
		uf.Union(e[0], e[1])
	}
	lbl := make([]int32, o.n)
	min := make(map[int32]int32, o.n)
	for v := int32(0); v < int32(o.n); v++ {
		r := uf.Find(v)
		m, ok := min[r]
		if !ok {
			m = v
			min[r] = v
		}
		lbl[v] = m
	}
	return lbl
}

func countComponents(lbl []int32) uint64 {
	seen := make(map[int32]struct{}, len(lbl))
	for _, l := range lbl {
		seen[l] = struct{}{}
	}
	return uint64(len(seen))
}

// expectEvents derives the exact event stream one labelling transition owes
// a subscriber watching `watch` with component events on — pubsub.Derive
// for the merges/splits (the oracle and the server share the derivation,
// which is the point: the SERVER's labellings come from the live structure,
// the oracle's from scratch replay; equal streams mean equal partitions)
// followed by pair flips in watch order.
func expectEvents(prev, cur []int32, watch []conn.Edge) []client.Event {
	var changed []int32
	for v := range cur {
		if prev[v] != cur[v] {
			changed = append(changed, int32(v))
		}
	}
	var out []client.Event
	if len(changed) > 0 {
		d := &snapshot.Diff{
			Prev:    snapshot.NewLabels(prev, 0),
			Cur:     snapshot.NewLabels(cur, 0),
			Changed: changed,
		}
		for _, ev := range pubsub.Derive(d, 0) {
			out = append(out, client.Event{Kind: client.EventKind(ev.Kind),
				Label: ev.Label, Others: ev.Others})
		}
	}
	for _, p := range watch {
		before := prev[p.U] == prev[p.V]
		after := cur[p.U] == cur[p.V]
		if before == after {
			continue
		}
		k := client.EventPairDisconnected
		if after {
			k = client.EventPairConnected
		}
		out = append(out, client.Event{Kind: k, U: p.U, V: p.V})
	}
	return out
}

func sameEvent(a, b client.Event) bool {
	if a.Kind != b.Kind || a.Label != b.Label || a.U != b.U || a.V != b.V ||
		len(a.Others) != len(b.Others) {
		return false
	}
	for i := range a.Others {
		if a.Others[i] != b.Others[i] {
			return false
		}
	}
	return true
}

func TestEventStreamDifferentialUnsharded(t *testing.T) {
	const (
		nFabric = 48
		rounds  = 40
	)
	n := nFabric + 2 // two sentinels carry the beacon
	s0, s1 := int32(nFabric), int32(nFabric+1)

	srv, addr, _ := start(t, Options{DataDir: t.TempDir()})
	defer srv.Shutdown()
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create("g", n, false); err != nil {
		t.Fatal(err)
	}
	ns := cl.Namespace("g")

	rng := newRng(421)
	var watch []conn.Edge
	for len(watch) < 8 {
		u, v := int32(rng.Intn(nFabric)), int32(rng.Intn(nFabric))
		if u != v {
			watch = append(watch, conn.Edge{U: u, V: v})
		}
	}
	watch = append(watch, conn.Edge{U: s0, V: s1}) // beacon LAST in watch order

	sub, err := ns.SubscribeEvents(true, watch)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	oracle := newEvOracle(n)
	prevLbl := oracle.labels()
	believed := make(map[[2]int32]bool, len(watch))
	for _, p := range watch {
		believed[ekey(p.U, p.V)] = prevLbl[p.U] == prevLbl[p.V]
	}
	beacon := []conn.Edge{{U: s0, V: s1}}
	beaconUp := false

	for round := 0; round < rounds; round++ {
		// One random batch: all-insert or all-delete (mixed batches have
		// server-defined intra-epoch order; the oracle stays agnostic).
		insert := len(oracle.edges) == 0 || rng.Intn(2) == 0
		var batch []conn.Edge
		if insert {
			for i := 0; i < 1+rng.Intn(16); i++ {
				u, v := int32(rng.Intn(nFabric)), int32(rng.Intn(nFabric))
				if u != v {
					batch = append(batch, conn.Edge{U: u, V: v})
				}
			}
		} else {
			// Deterministic victim selection (map order would make failures
			// unreproducible): sort the live set, sample by index. The beacon
			// edge is never a victim — only the end-of-round toggle may flip
			// the beacon pair, or the flip-is-last barrier breaks.
			live := make([][2]int32, 0, len(oracle.edges))
			for e := range oracle.edges {
				if e[0] >= int32(nFabric) {
					continue
				}
				live = append(live, e)
			}
			sort.Slice(live, func(i, j int) bool {
				if live[i][0] != live[j][0] {
					return live[i][0] < live[j][0]
				}
				return live[i][1] < live[j][1]
			})
			quota := 1 + rng.Intn(12)
			for i := 0; i < quota && len(live) > 0; i++ {
				j := rng.Intn(len(live))
				batch = append(batch, conn.Edge{U: live[j][0], V: live[j][1]})
				live = append(live[:j], live[j+1:]...)
			}
		}
		if insert {
			_, err = ns.InsertEdges(batch)
		} else {
			_, err = ns.DeleteEdges(batch)
		}
		if err != nil {
			t.Fatal(err)
		}
		oracle.apply(insert, batch)
		midLbl := oracle.labels()

		// Beacon toggle: committed strictly after the batch, so its pair
		// flip — last in watch order — is the round's final event.
		if beaconUp {
			_, err = ns.DeleteEdges(beacon)
		} else {
			_, err = ns.InsertEdges(beacon)
		}
		if err != nil {
			t.Fatal(err)
		}
		oracle.apply(!beaconUp, beacon)
		beaconUp = !beaconUp
		curLbl := oracle.labels()

		var got []client.Event
		for {
			ev, ok := <-sub.C()
			if !ok {
				t.Fatalf("round %d: stream closed: %v", round, sub.Err())
			}
			if ev.Kind == client.EventGap {
				t.Fatalf("round %d: gap on an attentive subscriber", round)
			}
			if ev.Kind == client.EventPairConnected || ev.Kind == client.EventPairDisconnected {
				believed[ekey(ev.U, ev.V)] = ev.Kind == client.EventPairConnected
			}
			got = append(got, ev)
			if (ev.Kind == client.EventPairConnected || ev.Kind == client.EventPairDisconnected) &&
				ev.U == s0 && ev.V == s1 {
				break
			}
		}

		// Cumulative checks: every watched pair's believed state equals the
		// oracle's, and the served component count agrees.
		for _, p := range watch {
			want := curLbl[p.U] == curLbl[p.V]
			if believed[ekey(p.U, p.V)] != want {
				t.Fatalf("round %d: pair {%d,%d} believed %v, oracle %v",
					round, p.U, p.V, believed[ekey(p.U, p.V)], want)
			}
		}
		count, _, err := ns.ComponentAggregate()
		if err != nil {
			t.Fatal(err)
		}
		if want := countComponents(curLbl); count != want {
			t.Fatalf("round %d: served %d components, oracle %d", round, count, want)
		}

		// Exact stream equality: one batch is one epoch is one transition,
		// so the round's stream is the batch's transition followed by the
		// beacon's.
		want := append(expectEvents(prevLbl, midLbl, watch),
			expectEvents(midLbl, curLbl, watch)...)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d events %v, want %d %v",
				round, len(got), got, len(want), want)
		}
		for i := range got {
			if !sameEvent(got[i], want[i]) {
				t.Fatalf("round %d event %d: got %+v, want %+v",
					round, i, got[i], want[i])
			}
		}
		prevLbl = curLbl
	}
}

// TestEventSubscriptionLifecycle covers the wire-path plumbing around the
// stream itself: stats surface the live subscriber and delivery counters,
// and a closed subscription detaches server-side (the hub drops the
// subscriber once the pump notices the dead connection).
func TestEventSubscriptionLifecycle(t *testing.T) {
	srv, addr, _ := start(t, Options{DataDir: t.TempDir()})
	defer srv.Shutdown()
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create("g", 64, false); err != nil {
		t.Fatal(err)
	}
	ns := cl.Namespace("g")

	// Subscribing with nothing requested is a client error, not a stream.
	if _, err := ns.SubscribeEvents(false, nil); err == nil {
		t.Fatal("empty subscription accepted")
	}
	// Out-of-range watch vertices are rejected before the hub is touched.
	if _, err := ns.SubscribeEvents(false, []conn.Edge{{U: 0, V: 64}}); err == nil {
		t.Fatal("out-of-range watch pair accepted")
	}

	sub, err := ns.SubscribeEvents(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Insert(0, 1); err != nil {
		t.Fatal(err)
	}
	if ev := <-sub.C(); ev.Kind != client.EventMerge {
		t.Fatalf("got %+v, want the merge", ev)
	}
	st, err := ns.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.EventSubscribers != 1 || st.EventsDelivered == 0 {
		t.Fatalf("stats = %d subscribers / %d delivered, want 1 / >0",
			st.EventSubscribers, st.EventsDelivered)
	}

	// Close the stream; the server only notices on its next write, so keep
	// generating transitions until the subscriber count drains.
	sub.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := ns.Delete(0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := ns.Insert(0, 1); err != nil {
			t.Fatal(err)
		}
		st, err = ns.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.EventSubscribers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber never detached: %d live", st.EventSubscribers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
