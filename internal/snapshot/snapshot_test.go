package snapshot

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// modelGraph is a Source backed by a plain edge set with connectivity
// recomputed from scratch after every change — slow, obviously correct.
type modelGraph struct {
	n     int
	edges map[[2]int32]bool
	rep   []int32 // min-vertex label per vertex, recomputed by refresh
}

func newModel(n int) *modelGraph {
	m := &modelGraph{n: n, edges: map[[2]int32]bool{}}
	m.refresh()
	return m
}

func key(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

func (m *modelGraph) refresh() {
	parent := make([]int32, m.n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for e := range m.edges {
		ru, rv := find(e[0]), find(e[1])
		if ru != rv {
			parent[ru] = rv
		}
	}
	min := make([]int32, m.n)
	for i := range min {
		min[i] = int32(m.n)
	}
	for u := 0; u < m.n; u++ {
		r := find(int32(u))
		if int32(u) < min[r] {
			min[r] = int32(u)
		}
	}
	m.rep = make([]int32, m.n)
	for u := 0; u < m.n; u++ {
		m.rep[u] = min[find(int32(u))]
	}
}

func (m *modelGraph) ComponentID(u int32) uint64 { return uint64(m.rep[u]) }

func (m *modelGraph) ComponentSize(u int32) int64 {
	var c int64
	for v := 0; v < m.n; v++ {
		if m.rep[v] == m.rep[u] {
			c++
		}
	}
	return c
}

func (m *modelGraph) ComponentVertices(u int32) []int32 {
	var out []int32
	for v := 0; v < m.n; v++ {
		if m.rep[v] == m.rep[u] {
			out = append(out, int32(v))
		}
	}
	return out
}

func (m *modelGraph) ComponentLabels(dst []int32) { copy(dst, m.rep) }

// mutate applies k random edge toggles and returns the touched endpoints.
func (m *modelGraph) mutate(rng *rand.Rand, k int) []int32 {
	var touched []int32
	for i := 0; i < k; i++ {
		u, v := int32(rng.Intn(m.n)), int32(rng.Intn(m.n))
		if u == v {
			continue
		}
		e := key(u, v)
		if m.edges[e] {
			delete(m.edges, e)
		} else {
			m.edges[e] = true
		}
		touched = append(touched, u, v)
	}
	m.refresh()
	return touched
}

// epoch runs one engine-shaped epoch through s against the model: Prepare
// with the merging inserts (those the published labelling puts in
// different components) unless skipPrepare, inserts before deletes, then
// Publish with the merge endpoints plus the deleted edges' endpoints. It
// checks the labels against the model, Diff.Changed against exactly
// {v : prev label != new label}, and that the diff is nil iff the partition
// did not change. Deletes of absent edges are no-ops.
func (m *modelGraph) epoch(t testing.TB, s *Store, ins, del [][2]int32, skipPrepare bool) *Diff {
	t.Helper()
	prev := s.Current()
	var touched []int32
	for _, e := range ins {
		if e[0] != e[1] && !prev.Connected(e[0], e[1]) {
			touched = append(touched, e[0], e[1])
		}
	}
	if !skipPrepare {
		s.Prepare(touched)
	}
	for _, e := range ins {
		if e[0] != e[1] {
			m.edges[key(e[0], e[1])] = true
		}
	}
	for _, e := range del {
		if k := key(e[0], e[1]); m.edges[k] {
			delete(m.edges, k)
			touched = append(touched, e[0], e[1])
		}
	}
	m.refresh()
	d := s.Publish(touched)
	checkAgainstModel(t, s.Current(), m, "epoch")

	var want []int32
	for u := 0; u < m.n; u++ {
		if prev.Label(int32(u)) != m.rep[u] {
			want = append(want, int32(u))
		}
	}
	if d == nil {
		if len(want) != 0 {
			t.Fatalf("partition changed at %d vertices but Publish returned no diff", len(want))
		}
		if s.Current() != prev {
			t.Fatal("Publish replaced the snapshot but returned no diff")
		}
		return nil
	}
	if d.Prev != prev || d.Cur != s.Current() {
		t.Fatal("diff does not link the previous and the published labelling")
	}
	got := append([]int32(nil), d.Changed...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(want) {
		t.Fatalf("Diff.Changed has %d entries, %d labels changed", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Diff.Changed = %v..., want %v...", got[:i+1], want[:i+1])
		}
	}
	return d
}

func checkAgainstModel(t testing.TB, l *Labels, m *modelGraph, tag string) {
	t.Helper()
	for u := 0; u < m.n; u++ {
		if l.Label(int32(u)) != m.rep[u] {
			t.Fatalf("%s: Label(%d) = %d, model says %d", tag, u, l.Label(int32(u)), m.rep[u])
		}
	}
}

// TestPublishDifferential drives random epochs through stores at both
// extremes of the rebuild threshold — always-incremental and always-rebuild
// — and checks every published labelling against the model.
func TestPublishDifferential(t *testing.T) {
	const n = 256
	for _, threshold := range []int{1, n * n} {
		m := newModel(n)
		s := NewStore(n, threshold, m)
		checkAgainstModel(t, s.Current(), m, "initial")
		rng := rand.New(rand.NewSource(int64(threshold)))
		for epoch := 0; epoch < 60; epoch++ {
			touched := m.mutate(rng, 1+rng.Intn(8))
			s.Publish(touched)
			checkAgainstModel(t, s.Current(), m, "epoch")
		}
		st := s.Stats()
		if threshold == 1 && st.Rebuilds != st.Publishes {
			t.Errorf("threshold=1: want every publish to rebuild, got %d/%d", st.Rebuilds, st.Publishes)
		}
		if threshold == n*n && st.Rebuilds != 0 {
			t.Errorf("threshold=n²: want no rebuilds, got %d", st.Rebuilds)
		}
	}
}

// TestPublishVerifyDifferential drives engine-shaped epochs at a size where
// the giant component is far over the walk threshold, so every epoch that
// touches it goes through Prepare's bookkeeping and verification. Three
// kinds of epoch: merges into the giant, deletes of giant edges (most of
// them split something off), and deletes of edges on a cycle (no partition
// change). The model checks labels, the exact Diff.Changed and nil-iff-
// unchanged after every epoch; the fallback stays rare.
func TestPublishVerifyDifferential(t *testing.T) {
	const n, threshold = 2048, 64
	rng := rand.New(rand.NewSource(5))
	m := newModel(n)
	for len(m.edges) < n {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			m.edges[key(u, v)] = true
		}
	}
	m.refresh()
	s := NewStore(n, threshold, m)
	if giant := m.ComponentSize(m.rep[0]); giant <= threshold {
		t.Fatalf("vertex 0's component holds %d vertices, want a giant over %d", giant, threshold)
	}
	epochs := 150
	if testing.Short() {
		epochs = 60
	}
	// The giant is the largest label class; giantEdges lists its edges in
	// a fixed order so the seed fixes the run.
	giant := func() (g int32, vs []int32) {
		count := map[int32]int{}
		for _, r := range m.rep {
			count[r]++
			if count[r] > count[g] {
				g = r
			}
		}
		for v, r := range m.rep {
			if r == g {
				vs = append(vs, int32(v))
			}
		}
		return g, vs
	}
	giantEdges := func(g int32) [][2]int32 {
		var es [][2]int32
		for e := range m.edges {
			if m.rep[e[0]] == g {
				es = append(es, e)
			}
		}
		sort.Slice(es, func(i, j int) bool { return es[i][0] < es[j][0] || es[i][0] == es[j][0] && es[i][1] < es[j][1] })
		return es
	}
	var merged, split, quiet int // epochs of each kind that changed the partition
	for e := 0; e < epochs; e++ {
		g, gvs := giant()
		var ins, del [][2]int32
		switch e % 3 {
		case 0: // merges into the giant: outside vertices join it
			for i := 0; i < 1+rng.Intn(4); i++ {
				if v := int32(rng.Intn(n)); m.rep[v] != g {
					ins = append(ins, [2]int32{gvs[rng.Intn(len(gvs))], v})
				}
			}
		case 1: // deletes of giant edges, plus a fresh edge to keep m stable
			es := giantEdges(g)
			for i := 0; i < 1+rng.Intn(3); i++ {
				del = append(del, es[rng.Intn(len(es))])
			}
			ins = append(ins, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
		case 2: // a non-tree delete: an edge whose removal splits nothing
			es := giantEdges(g)
			for _, i := range rng.Perm(len(es)) {
				delete(m.edges, es[i])
				m.refresh()
				stays := m.rep[es[i][0]] == m.rep[es[i][1]]
				m.edges[es[i]] = true
				m.refresh()
				if stays {
					del = append(del, es[i])
					break
				}
			}
			if len(del) == 0 {
				t.Fatalf("epoch %d: no cycle edge in the giant", e)
			}
		}
		d := m.epoch(t, s, ins, del, false)
		if d == nil {
			continue
		}
		switch e % 3 {
		case 0:
			merged++
		case 1:
			// A split raises a label somewhere; a merge only lowers them.
			for _, v := range d.Changed {
				if d.Cur.Label(v) > d.Prev.Label(v) {
					split++
					break
				}
			}
		case 2:
			quiet++
		}
	}
	st := s.Stats()
	t.Logf("%d epochs: %d merged, %d split, %d non-tree deletes published; %d publishes, %d rebuilds",
		epochs, merged, split, quiet, st.Publishes, st.Rebuilds)
	if merged == 0 || split == 0 {
		t.Fatalf("merged=%d split=%d: merges into and splits from the giant both need coverage", merged, split)
	}
	if quiet != 0 {
		t.Fatalf("%d non-tree-delete epochs published a diff", quiet)
	}
	if st.Rebuilds*5 > st.Publishes {
		t.Fatalf("%d of %d publishes fell back to a full relabelling", st.Rebuilds, st.Publishes)
	}
}

// TestPublishVerifyFallbacks pins the two shapes verification must refuse —
// the anchor's minimum splitting off, and a smaller label joining the
// giant — each of which costs exactly one counted rebuild, and the shape
// it must accept: a larger label joining, which rewrites only the joiner.
func TestPublishVerifyFallbacks(t *testing.T) {
	const n, threshold = 64, 4
	setup := func() (*modelGraph, *Store) {
		m := newModel(n)
		for v := int32(10); v < 49; v++ { // giant: the path 10-11-...-49
			m.edges[key(v, v+1)] = true
		}
		m.edges[key(55, 56)] = true
		m.refresh()
		return m, NewStore(n, threshold, m)
	}
	rebuilds := func(s *Store) int64 { return s.Stats().Rebuilds }

	m, s := setup()
	d := m.epoch(t, s, [][2]int32{{30, 56}}, nil, false)
	if rebuilds(s) != 0 || d == nil || len(d.Changed) != 2 {
		t.Fatalf("larger label joins: rebuilds=%d diff=%+v, want 0 and Changed = {55, 56}", rebuilds(s), d)
	}

	m, s = setup()
	m.epoch(t, s, nil, [][2]int32{{10, 11}}, false)
	if got := rebuilds(s); got != 1 {
		t.Fatalf("anchor minimum splits off: %d rebuilds, want 1", got)
	}

	m, s = setup()
	m.epoch(t, s, [][2]int32{{3, 30}}, nil, false)
	if got := rebuilds(s); got != 1 {
		t.Fatalf("smaller label joins: %d rebuilds, want 1", got)
	}

	// Without Prepare a dirty set over the threshold is a full relabelling,
	// as it always was.
	m, s = setup()
	m.epoch(t, s, [][2]int32{{30, 56}}, nil, true)
	if got := rebuilds(s); got != 1 {
		t.Fatalf("unprepared publish: %d rebuilds, want 1", got)
	}
}

// TestPublishMergeSplitScenarios pins the two connectivity-changing shapes
// the incremental path must repair: merging two labelled components, and a
// split where the smaller fragment holds no minimum.
func TestPublishMergeSplitScenarios(t *testing.T) {
	const n = 16
	m := newModel(n)
	s := NewStore(n, n*n, m) // incremental only

	// Build path 0-1-2-3 and path 8-9.
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {8, 9}} {
		m.edges[key(e[0], e[1])] = true
	}
	m.refresh()
	s.Publish([]int32{0, 1, 1, 2, 2, 3, 8, 9})
	checkAgainstModel(t, s.Current(), m, "build")

	// Merge the two via (3,8): labels of 8 and 9 must fall to 0.
	m.edges[key(3, 8)] = true
	m.refresh()
	s.Publish([]int32{3, 8})
	checkAgainstModel(t, s.Current(), m, "merge")
	if got := s.Current().Label(9); got != 0 {
		t.Fatalf("after merge, Label(9) = %d, want 0", got)
	}

	// Split by cutting (1,2): fragment {2,3,8,9} gets fresh min 2, and the
	// touched endpoints (1 and 2) sit in different fragments.
	delete(m.edges, key(1, 2))
	m.refresh()
	s.Publish([]int32{1, 2})
	checkAgainstModel(t, s.Current(), m, "split")
	if !s.Current().Connected(2, 9) || s.Current().Connected(0, 9) {
		t.Fatal("split labelling wrong")
	}

	// Empty touched set: no new publish, same snapshot.
	before := s.Current()
	s.Publish(nil)
	if s.Current() != before {
		t.Fatal("Publish(nil) replaced the snapshot")
	}
	if got := s.Current().Epoch(); got != 3 {
		t.Fatalf("Epoch = %d, want 3", got)
	}
}

// TestConcurrentReadersDuringPublish hammers Current from many goroutines
// while the publisher replaces snapshots — run with -race. Readers verify
// each loaded Labels is internally canonical (lbl[u] <= u and
// lbl[lbl[u]] == lbl[u]), which would break if a published array were ever
// mutated or torn.
func TestConcurrentReadersDuringPublish(t *testing.T) {
	const n = 512
	m := newModel(n)
	s := NewStore(n, 0, m)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l := s.Current()
				for u := 0; u < n; u++ {
					lu := l.Label(int32(u))
					if lu > int32(u) || l.Label(lu) != lu {
						t.Errorf("snapshot not canonical at %d: lbl=%d", u, lu)
						return
					}
					if !l.Connected(int32(u), lu) {
						t.Errorf("Connected(%d, label) = false", u)
						return
					}
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(99))
	epochs := 200
	if testing.Short() {
		epochs = 40
	}
	var last uint64
	for e := 0; e < epochs; e++ {
		s.Publish(m.mutate(rng, 1+rng.Intn(6)))
		if cur := s.Current().Epoch(); cur < last {
			t.Fatalf("epoch went backwards: %d -> %d", last, cur)
		} else {
			last = cur
		}
	}
	close(stop)
	wg.Wait()
	checkAgainstModel(t, s.Current(), m, "final")
}
