package pubsub

import (
	"reflect"
	"testing"

	"repro/internal/snapshot"
)

// mkDiff builds a labelling transition from two explicit canonical
// (min-vertex) labellings the way the server does: a snapshot.Store starts
// from prev and publishes cur. The result is nil when the two are equal.
func mkDiff(t *testing.T, prev, cur []int32) *snapshot.Diff {
	t.Helper()
	if len(prev) != len(cur) {
		t.Fatalf("labelling length mismatch: %d vs %d", len(prev), len(cur))
	}
	src := &labelling{lbl: prev}
	st := snapshot.NewStore(len(prev), 0, src)
	src.lbl = cur
	touched := make([]int32, len(cur))
	for v := range touched {
		touched[v] = int32(v)
	}
	return st.Publish(touched)
}

// labelling serves a fixed labelling as a snapshot.Source.
type labelling struct{ lbl []int32 }

func (s *labelling) ComponentID(u int32) uint64  { return uint64(s.lbl[u]) }
func (s *labelling) ComponentSize(u int32) int64 { return int64(len(s.ComponentVertices(u))) }
func (s *labelling) ComponentLabels(dst []int32) { copy(dst, s.lbl) }
func (s *labelling) ComponentVertices(u int32) []int32 {
	var vs []int32
	for v, l := range s.lbl {
		if l == s.lbl[u] {
			vs = append(vs, int32(v))
		}
	}
	return vs
}

func eventsEqual(t *testing.T, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Label != w.Label || g.U != w.U || g.V != w.V ||
			!reflect.DeepEqual(g.Others, w.Others) {
			t.Fatalf("event %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestDeriveMerge(t *testing.T) {
	// {0,1} and {2,3} and {4} merge into one component labelled 0.
	got := Derive(mkDiff(t,
		[]int32{0, 0, 2, 2, 4},
		[]int32{0, 0, 0, 0, 0}), 7)
	eventsEqual(t, got, []Event{
		{Kind: KindMerge, Label: 0, Others: []int32{2, 4}},
	})
	for _, ev := range got {
		// mkDiff's store publishes cur as its epoch 1.
		if ev.Epoch != 1 || ev.Seq != 7 {
			t.Fatalf("event carries epoch=%d seq=%d, want 1/7", ev.Epoch, ev.Seq)
		}
	}
}

func TestDeriveSplitBothHalvesListed(t *testing.T) {
	// {0,1,2,3} splits into {0,1} and {2,3}: Others lists every fragment,
	// the surviving minimum-label half included.
	got := Derive(mkDiff(t,
		[]int32{0, 0, 0, 0},
		[]int32{0, 0, 2, 2}), 0)
	eventsEqual(t, got, []Event{
		{Kind: KindSplit, Label: 0, Others: []int32{0, 2}},
	})
}

func TestDeriveSplitSurvivorHasNoChangedVertices(t *testing.T) {
	// The differ edge case: {0,1,2} drops vertex 2 into its own component.
	// The half keeping the old min-vertex label has ZERO changed vertices —
	// survival must be detected on the labelling (Cur.Label(0) == 0), never
	// on the changed list, or the surviving fragment would go missing from
	// Others and the split would look like a wholesale relabel.
	d := mkDiff(t,
		[]int32{0, 0, 0},
		[]int32{0, 0, 2})
	if len(d.Changed) != 1 || d.Changed[0] != 2 {
		t.Fatalf("precondition: changed = %v, want [2]", d.Changed)
	}
	eventsEqual(t, Derive(d, 0), []Event{
		{Kind: KindSplit, Label: 0, Others: []int32{0, 2}},
	})
}

func TestDeriveVanishingLabelSplit(t *testing.T) {
	// {0,1} splits completely away from vertex 0's old label? Impossible for
	// min-vertex labels — but a relabel where the old label does NOT survive
	// happens when the min vertex's fragment merges elsewhere in the same
	// epoch. Component {2,3} splits AND {2} merges into {0}: old label 2's
	// destinations are {0, 3} and Cur.Label(2) != 2, so Others excludes 2.
	got := Derive(mkDiff(t,
		[]int32{0, 0, 2, 2},
		[]int32{0, 0, 0, 3}), 0)
	eventsEqual(t, got, []Event{
		{Kind: KindMerge, Label: 0, Others: []int32{2}},
		{Kind: KindSplit, Label: 2, Others: []int32{0, 3}},
	})
}

func TestDeriveMergesBeforeSplitsAscending(t *testing.T) {
	// Two disjoint merges and two disjoint splits in one epoch: delivery is
	// merges then splits, each ascending by label, so equal transitions
	// always derive byte-equal streams.
	got := Derive(mkDiff(t,
		[]int32{0, 1, 0, 1, 4, 4, 6, 6, 8, 9},
		[]int32{0, 0, 0, 0, 4, 5, 6, 7, 8, 8}), 0)
	eventsEqual(t, got, []Event{
		{Kind: KindMerge, Label: 0, Others: []int32{1}},
		{Kind: KindMerge, Label: 8, Others: []int32{9}},
		{Kind: KindSplit, Label: 4, Others: []int32{4, 5}},
		{Kind: KindSplit, Label: 6, Others: []int32{6, 7}},
	})
}

func TestDeriveEmpty(t *testing.T) {
	if got := Derive(nil, 0); got != nil {
		t.Fatalf("Derive(nil) = %v", got)
	}
	d := mkDiff(t, []int32{0, 0}, []int32{0, 0})
	if got := Derive(d, 0); got != nil {
		t.Fatalf("Derive(no change) = %v", got)
	}
}

func feed(h *Hub, t *testing.T, prev, cur []int32) {
	t.Helper()
	h.Feed(0, mkDiff(t, prev, cur))
}

func TestHubPairAndComponentDelivery(t *testing.T) {
	h := NewHub()
	defer h.Close()
	comp := h.Subscribe(true, nil)
	pair := h.Subscribe(false, []Pair{{U: 1, V: 3}, {U: 0, V: 1}})

	feed(h, t, []int32{0, 0, 2, 2}, []int32{0, 0, 0, 0}) // merge: 1-3 connect

	ev := <-comp.C()
	if ev.Kind != KindMerge || ev.Label != 0 {
		t.Fatalf("component subscriber got %+v", ev)
	}
	ev = <-pair.C()
	if ev.Kind != KindPairConnected || ev.U != 1 || ev.V != 3 {
		t.Fatalf("pair subscriber got %+v", ev)
	}
	select {
	case ev = <-pair.C():
		t.Fatalf("pair 0-1 did not flip but got %+v", ev)
	default:
	}

	feed(h, t, []int32{0, 0, 0, 0}, []int32{0, 0, 2, 2}) // split: 1-3 disconnect
	<-comp.C()
	ev = <-pair.C()
	if ev.Kind != KindPairDisconnected || ev.U != 1 || ev.V != 3 {
		t.Fatalf("pair subscriber got %+v after split", ev)
	}

	subs, delivered, dropped := h.Stats()
	if subs != 2 || delivered != 4 || dropped != 0 {
		t.Fatalf("stats = %d/%d/%d, want 2/4/0", subs, delivered, dropped)
	}
}

func TestHubOverflowDropsAndGaps(t *testing.T) {
	old := SubscriberBuffer
	SubscriberBuffer = 2
	defer func() { SubscriberBuffer = old }()

	h := NewHub()
	defer h.Close()
	s := h.Subscribe(true, nil)

	// Three transitions into a 2-slot buffer nobody reads: the first two
	// fill it, the third is dropped and owed a single gap marker.
	feed(h, t, []int32{0, 1}, []int32{0, 0})
	feed(h, t, []int32{0, 0}, []int32{0, 1})
	feed(h, t, []int32{0, 1}, []int32{0, 0})

	if _, _, dropped := h.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if ev := <-s.C(); ev.Kind != KindMerge {
		t.Fatalf("first event %+v, want the buffered merge", ev)
	}
	if ev := <-s.C(); ev.Kind != KindSplit {
		t.Fatalf("second event %+v, want the buffered split", ev)
	}
	// The next transition must deliver the gap BEFORE its own events.
	feed(h, t, []int32{0, 0}, []int32{0, 1})
	if ev := <-s.C(); ev.Kind != KindGap {
		t.Fatalf("after overflow got %+v, want gap first", ev)
	}
	if ev := <-s.C(); ev.Kind != KindSplit {
		t.Fatalf("after gap got %+v, want the split", ev)
	}
}

func TestHubCancelAndClose(t *testing.T) {
	h := NewHub()
	a := h.Subscribe(true, nil)
	b := h.Subscribe(true, nil)
	h.Cancel(a)
	select {
	case <-a.Done():
	default:
		t.Fatal("Cancel did not close Done")
	}
	h.Cancel(a) // idempotent
	feed(h, t, []int32{0, 1}, []int32{0, 0})
	if subs, _, _ := h.Stats(); subs != 1 {
		t.Fatalf("subscribers = %d after cancel", subs)
	}
	h.Close()
	select {
	case <-b.Done():
	default:
		t.Fatal("Close did not close Done")
	}
	if h.Subscribe(true, nil) != nil {
		t.Fatal("Subscribe after Close must return nil")
	}
	h.Close() // idempotent
}
