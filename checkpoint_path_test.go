// Regression tests for the checkpoint request path: the dispatcher nudge
// (Checkpoint must not ride a fake vertex query), the Checkpoint/Close race
// (an error, never a panic), and the wal.Reset failure path (a failed reset
// must leave the directory with a consistent (checkpoint, log) pair).
package conn

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// checkpointFiles returns the checkpoint file names in dir, sorted.
func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir(%s): %v", dir, err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "checkpoint-") && strings.HasSuffix(e.Name(), ".ckpt") {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestCheckpointTinyUniverse: a checkpoint on a single-vertex, edgeless
// graph with no operations ever submitted. The request must ride a
// dispatcher nudge, not a vertex operation — there is no edge and no work
// to hang it on — and the resulting state must restore.
func TestCheckpointTinyUniverse(t *testing.T) {
	dir := t.TempDir()
	g := New(1)
	b := NewBatcher(g, WithDurability(dir))
	path, err := b.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint on edgeless n=1 graph: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("returned checkpoint path not on disk: %v", err)
	}
	if got := b.Stats().Checkpoints; got != 1 {
		t.Fatalf("Checkpoints stat = %d, want 1", got)
	}
	b.Close()
	r, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if r.N() != 1 || r.NumEdges() != 0 {
		t.Fatalf("restored n=%d edges=%d, want n=1 edges=0", r.N(), r.NumEdges())
	}
}

// TestEmptyUniverseUnconstructible pins the invariant the checkpoint path
// relies on: a zero- or negative-vertex graph cannot exist, so every live
// Batcher has a well-defined (possibly edgeless) universe to snapshot.
func TestEmptyUniverseUnconstructible(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

// TestCheckpointAfterCloseReturnsError: once Close has begun, Checkpoint
// must fail with ErrClosed instead of panicking (the old implementation
// panicked inside the smuggled query's Submit).
func TestCheckpointAfterCloseReturnsError(t *testing.T) {
	dir := t.TempDir()
	b := NewBatcher(New(16), WithDurability(dir))
	b.Insert(0, 1)
	b.Close()
	if _, err := b.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close: err = %v, want ErrClosed", err)
	}
}

// TestCheckpointCloseRace races concurrent Checkpoint callers against
// Close. Every call must return — either a successful path or ErrClosed —
// and never panic or deadlock.
func TestCheckpointCloseRace(t *testing.T) {
	iters := 25
	if testing.Short() {
		iters = 8
	}
	for iter := 0; iter < iters; iter++ {
		dir := t.TempDir()
		b := NewBatcher(New(64), WithDurability(dir))
		b.Insert(1, 2)

		const callers = 4
		var wg sync.WaitGroup
		start := make(chan struct{})
		errCh := make(chan error, callers*3)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 3; j++ {
					if _, err := b.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
						errCh <- err
					}
					runtime.Gosched()
				}
			}()
		}
		close(start)
		runtime.Gosched()
		b.Close()
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatalf("iter %d: Checkpoint racing Close: %v", iter, err)
		}
	}
}

// TestCheckpointResetFailureKeepsFallback injects a wal.Reset failure (a
// directory squatting on the log's temp path) and asserts the failed
// checkpoint neither prunes the prior checkpoint, nor counts itself, nor
// damages the WAL — the directory must still restore the full acked state
// even if the newest snapshot file is lost.
func TestCheckpointResetFailureKeepsFallback(t *testing.T) {
	dir := t.TempDir()
	g := New(128)
	b := NewBatcher(g, WithDurability(dir))

	expect := make(map[[2]int32]bool)
	ins := func(es ...Edge) {
		b.InsertEdges(es)
		for _, e := range es {
			u, v := e.U, e.V
			if u > v {
				u, v = v, u
			}
			expect[[2]int32{u, v}] = true
		}
	}

	ins(Edge{U: 0, V: 1}, Edge{U: 1, V: 2}, Edge{U: 2, V: 3})
	if _, err := b.Checkpoint(); err != nil {
		t.Fatalf("first Checkpoint: %v", err)
	}
	first := checkpointFiles(t, dir)
	if len(first) != 1 {
		t.Fatalf("after first checkpoint: files %v, want exactly one", first)
	}

	ins(Edge{U: 10, V: 11}, Edge{U: 11, V: 12}, Edge{U: 3, V: 10})

	// Injection: wal.Reset writes wal.log.tmp then renames it over the log;
	// a directory at that path makes the reset fail after the new snapshot
	// file is already written.
	tmp := filepath.Join(dir, walFileName+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	path, err := b.Checkpoint()
	if err == nil {
		t.Fatal("Checkpoint with failing wal.Reset reported success")
	}
	if path != "" {
		t.Fatalf("failed Checkpoint returned path %q, want empty", path)
	}
	if got := b.Stats().Checkpoints; got != 1 {
		t.Fatalf("Checkpoints stat = %d after failed reset, want 1 (failure must not count)", got)
	}
	files := checkpointFiles(t, dir)
	found := false
	for _, f := range files {
		if f == first[0] {
			found = true
		}
	}
	if !found {
		t.Fatalf("prior checkpoint %s was pruned on the failed path; files now %v", first[0], files)
	}

	// The batcher stays usable: the WAL was never truncated, so appends
	// continue and later state is still acked-durable.
	ins(Edge{U: 20, V: 21})
	b.Close()

	check := func(g *Graph) {
		t.Helper()
		if g.NumEdges() != len(expect) {
			t.Fatalf("restored %d edges, want %d", g.NumEdges(), len(expect))
		}
		for e := range expect {
			if !g.HasEdge(e[0], e[1]) {
				t.Fatalf("restored graph missing edge {%d,%d}", e[0], e[1])
			}
		}
	}

	r, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore after failed reset: %v", err)
	}
	check(r)

	// Harsher: lose every snapshot the failed attempt produced, keeping only
	// the pre-failure checkpoint. Because the WAL was left intact, the old
	// (checkpoint, log) pair must still cover the full history.
	for _, f := range checkpointFiles(t, dir) {
		if f != first[0] {
			if err := os.Remove(filepath.Join(dir, f)); err != nil {
				t.Fatal(err)
			}
		}
	}
	r2, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore from fallback checkpoint + WAL tail: %v", err)
	}
	check(r2)

	// With the injection cleared, a fresh durable session checkpoints
	// normally again and prunes down to the new floor.
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	b2 := NewBatcher(r2, WithDurability(dir))
	if _, err := b2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after clearing injection: %v", err)
	}
	if got := b2.Stats().Checkpoints; got != 1 {
		t.Fatalf("recovered session Checkpoints stat = %d, want 1", got)
	}
	b2.Close()
	if files := checkpointFiles(t, dir); len(files) != 1 {
		t.Fatalf("after recovered checkpoint: files %v, want exactly the new floor", files)
	}
}
