package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := Snapshot{Seq: 42, N: 100, Edges: []graph.Edge{{U: 0, V: 1}, {U: 7, V: 99}}}
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != s.Seq || got.N != s.N || len(got.Edges) != 2 || got.Edges[1] != s.Edges[1] {
		t.Fatalf("round trip = %+v", got)
	}
	empty := Snapshot{Seq: 0, N: 1}
	if _, err := Decode(Encode(empty)); err != nil {
		t.Fatalf("empty snapshot: %v", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := Encode(Snapshot{Seq: 3, N: 10, Edges: []graph.Edge{{U: 1, V: 2}}})
	for i := range enc {
		bad := append([]byte{}, enc...)
		bad[i] ^= 0x10
		if _, err := Decode(bad); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
	for _, cut := range []int{0, 5, len(enc) - 1} {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d accepted", cut)
		}
	}
}

func TestDecodeRejectsOutOfUniverseEdge(t *testing.T) {
	if _, err := Decode(Encode(Snapshot{Seq: 1, N: 4, Edges: []graph.Edge{{U: 1, V: 7}}})); err == nil {
		t.Fatal("edge outside universe accepted")
	}
}

func TestWriteLoadNewestAndFallback(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := Load(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	if _, ok, err := Load(filepath.Join(dir, "missing")); err != nil || ok {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}
	if _, err := Write(dir, Snapshot{Seq: 5, N: 8, Edges: []graph.Edge{{U: 0, V: 1}}}); err != nil {
		t.Fatal(err)
	}
	p9, err := Write(dir, Snapshot{Seq: 9, N: 8, Edges: []graph.Edge{{U: 2, V: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	s, ok, err := Load(dir)
	if err != nil || !ok || s.Seq != 9 {
		t.Fatalf("Load = %+v ok=%v err=%v, want seq 9", s, ok, err)
	}
	// Damage the newest: Load must fall back to seq 5, not fail.
	if err := os.WriteFile(p9, []byte("scribble"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ok, err = Load(dir)
	if err != nil || !ok || s.Seq != 5 {
		t.Fatalf("fallback Load = %+v ok=%v err=%v, want seq 5", s, ok, err)
	}
}

func TestPruneKeepsCurrent(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{1, 4, 9} {
		if _, err := Write(dir, Snapshot{Seq: seq, N: 4}); err != nil {
			t.Fatal(err)
		}
	}
	stray := filepath.Join(dir, "checkpoint-dead.ckpt.tmp")
	if err := os.WriteFile(stray, []byte("tmp"), 0o644); err != nil {
		t.Fatal(err)
	}
	Prune(dir, 9)
	names, err := list(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != fileName(9) {
		t.Fatalf("after prune: %v", names)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray temp file survived prune")
	}
}

// TestPruneDeltas: delta files left by the retired incremental checkpoints
// (and their stray temp files) are garbage once a checkpoint lands — no
// reader consults them — so Prune clears them while keeping the current
// checkpoint, and Load never mistakes one for a snapshot.
func TestPruneDeltas(t *testing.T) {
	dir := t.TempDir()
	if _, err := Write(dir, Snapshot{Seq: 9, N: 4, Edges: []graph.Edge{{U: 1, V: 2}}}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"delta-0000000000000005.dckpt", "delta-000000000000000c.dckpt", "delta-000000000000000d.dckpt.tmp",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("legacy"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if s, ok, err := Load(dir); err != nil || !ok || s.Seq != 9 || len(s.Edges) != 1 {
		t.Fatalf("Load beside delta files: seq %d ok=%v err=%v", s.Seq, ok, err)
	}
	Prune(dir, 9)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != fileName(9) {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("after prune at 9: %v, want only %s", names, fileName(9))
	}
}

// FuzzCheckpointDecode feeds arbitrary bytes to the snapshot decoder: it
// must never panic, and anything it accepts must re-encode to exactly the
// input (the format is canonical, so acceptance implies a clean CRC and
// fully consistent lengths).
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Encode(Snapshot{Seq: 1, N: 4, Edges: []graph.Edge{{U: 0, V: 3}}}))
	f.Add(Encode(Snapshot{Seq: 0, N: 1}))
	bad := Encode(Snapshot{Seq: 2, N: 4, Edges: []graph.Edge{{U: 1, V: 2}}})
	bad[9] ^= 0x80
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(Encode(s), data) {
			t.Fatalf("accepted snapshot does not round-trip (%d bytes)", len(data))
		}
		for _, e := range s.Edges {
			if e.U < 0 || e.V < 0 || int(e.U) >= s.N || int(e.V) >= s.N {
				t.Fatalf("accepted out-of-universe edge %v with n=%d", e, s.N)
			}
		}
	})
}
