package conn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/coalesce"
	"repro/internal/graph"
	"repro/internal/unionfind"
	"repro/internal/wal"
)

// ackedEpoch is one committed epoch as the durability layer sees it: the
// raw insert/delete batches (self-loops dropped, queries ignored) plus the
// WAL sequence number it was logged under (0 if it carried no updates).
type ackedEpoch struct {
	seq      uint64
	ins, del []graph.Edge
}

// collectDurableStream runs a concurrent mixed workload through a durable
// Batcher rooted at dir, optionally checkpointing between two waves, and
// returns the acked epoch stream in commit order.
func collectDurableStream(t *testing.T, dir string, n int, withCkpt bool) []ackedEpoch {
	t.Helper()
	g := New(n)
	b := NewBatcher(g, WithMaxBatch(48), WithMaxDelay(100*time.Microsecond), WithDurability(dir))
	var epochs []ackedEpoch
	var seq uint64
	b.testHook = func(ops []coalesce.Op, res []bool) {
		var e ackedEpoch
		for _, op := range ops {
			if op.U == op.V {
				continue
			}
			switch op.Kind {
			case coalesce.OpInsert:
				e.ins = append(e.ins, graph.Edge{U: op.U, V: op.V})
			case coalesce.OpDelete:
				e.del = append(e.del, graph.Edge{U: op.U, V: op.V})
			}
		}
		if len(e.ins)+len(e.del) > 0 {
			seq++
			e.seq = seq
		}
		epochs = append(epochs, e) // dispatcher goroutine only
	}

	perG := 600
	if testing.Short() {
		perG = 150
	}
	wave := func(waveID int) {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(31*waveID + w)))
				for i := 0; i < perG; i++ {
					u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
					switch r := rng.Intn(100); {
					case r < 45:
						b.Insert(u, v)
					case r < 75:
						b.Delete(u, v)
					case r < 90:
						b.Connected(u, v)
					default:
						b.InsertEdges([]Edge{{U: u, V: v}, {U: v, V: u}})
					}
				}
			}(w)
		}
		wg.Wait()
	}
	wave(1)
	if withCkpt {
		if _, err := b.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		wave(2)
	}
	b.Close()

	// Sanity: the WAL's final seq matches the hook's accounting.
	s := b.Stats()
	if s.WALRecords != int64(seq) {
		t.Fatalf("WALRecords = %d, hook assigned %d seqs", s.WALRecords, seq)
	}
	return epochs
}

// oracleState replays the acked epochs with seq in (0, upTo] through a
// sequential edge-set oracle and returns the surviving edge keys.
func oracleState(epochs []ackedEpoch, upTo uint64) map[uint64]bool {
	edges := map[uint64]bool{}
	for _, e := range epochs {
		if e.seq == 0 || e.seq > upTo {
			continue
		}
		for _, in := range e.ins {
			edges[in.Key()] = true
		}
		for _, d := range e.del {
			delete(edges, d.Key())
		}
	}
	return edges
}

// verifyRecovered checks that a restored graph is exactly the oracle state:
// same edge set, and the same connectivity partition as a union-find built
// from it.
func verifyRecovered(t *testing.T, g *Graph, n int, edges map[uint64]bool, tag string) {
	t.Helper()
	if g.NumEdges() != len(edges) {
		t.Fatalf("%s: NumEdges = %d, oracle has %d", tag, g.NumEdges(), len(edges))
	}
	for k := range edges {
		e := graph.FromKey(k)
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("%s: acked edge {%d,%d} lost", tag, e.U, e.V)
		}
	}
	uf := unionfind.New(n)
	for k := range edges {
		e := graph.FromKey(k)
		uf.Union(e.U, e.V)
	}
	lbl := make([]int32, n)
	g.ComponentLabels(lbl)
	fwd := map[int32]int32{} // uf root -> recovered label
	rev := map[int32]int32{}
	for u := 0; u < n; u++ {
		r := uf.Find(int32(u))
		if want, ok := fwd[r]; ok && want != lbl[u] {
			t.Fatalf("%s: vertex %d split from its oracle component", tag, u)
		}
		fwd[r] = lbl[u]
		if want, ok := rev[lbl[u]]; ok && want != r {
			t.Fatalf("%s: vertex %d merged into a foreign oracle component", tag, u)
		}
		rev[lbl[u]] = r
	}
}

// seedLegacyV1WAL writes an empty legacy log into dir: the documented WAL
// header (magic, version byte 1, n, baseSeq 0, crc32c) an older build
// created, so a Batcher made durable in dir keeps appending v1 records.
func seedLegacyV1WAL(t *testing.T, dir string, n int) {
	t.Helper()
	hdr := append([]byte("connwal\x01"), make([]byte, 16)...)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[20:], crc32.Checksum(hdr[:20], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
}

// cloneDurableDir copies dir's checkpoints into a fresh directory and
// installs walBytes as its WAL — one simulated crash image.
func cloneDurableDir(t *testing.T, dir string, walBytes []byte) string {
	t.Helper()
	crash := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() == "wal.log" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(crash, "wal.log"), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	return crash
}

// TestDurableCrashRecovery is the crash-recovery differential harness: a
// random concurrent update stream runs through a durable Batcher, then
// crashes are simulated at randomized WAL offsets — including torn
// mid-record tails and bit corruption — by truncating/corrupting a copy of
// the on-disk state. Each crash image is Restored and verified against a
// union-find oracle replay of exactly the epoch prefix that survived: no
// acked-and-surviving write may be lost, no discarded write may resurrect.
// Run with -race.
func TestDurableCrashRecovery(t *testing.T) {
	const n = 96
	for _, tc := range []struct {
		name     string
		withCkpt bool
		legacy   bool
	}{
		{"wal-only", false, false},
		{"checkpoint-plus-tail", true, false},
		// A legacy v1 log, seeded empty and appended to in the fixed-width
		// v1 codec: cuts land inside v1 payloads instead of v2 varints. The
		// differential contract is identical: restore must equal the oracle
		// replay of exactly the record prefix that survived the cut.
		{"legacy-v1", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.legacy {
				seedLegacyV1WAL(t, dir, n)
			}
			epochs := collectDurableStream(t, dir, n, tc.withCkpt)
			walBytes, err := os.ReadFile(filepath.Join(dir, "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := wal.Scan(bytes.NewReader(walBytes), nil)
			if err != nil {
				t.Fatal(err)
			}
			wantCodec := wal.CodecV2
			if tc.legacy {
				wantCodec = wal.CodecV1
			}
			if res.Codec != wantCodec.Version() {
				t.Fatalf("log written in codec %d, want %d", res.Codec, wantCodec.Version())
			}
			headerEnd := int64(wal.HeaderLen)

			trials := 18
			if testing.Short() {
				trials = 8
			}
			rng := rand.New(rand.NewSource(9))
			cuts := []int64{int64(len(walBytes)), headerEnd, int64(len(walBytes)) - 3}
			for i := 0; i < trials; i++ {
				cuts = append(cuts, headerEnd+rng.Int63n(int64(len(walBytes))-headerEnd+1))
			}
			for i, cut := range cuts {
				img := append([]byte{}, walBytes[:cut]...)
				crash := cloneDurableDir(t, dir, img)
				res, err := wal.Scan(bytes.NewReader(img), nil)
				if err != nil {
					t.Fatalf("cut %d: scan: %v", cut, err)
				}
				g2, err := Restore(crash)
				if err != nil {
					t.Fatalf("cut %d: Restore: %v", cut, err)
				}
				verifyRecovered(t, g2, n, oracleState(epochs, res.LastSeq), "cut")
				if i < 3 {
					if err := g2.CheckInvariants(); err != nil {
						t.Fatalf("cut %d: invariants: %v", cut, err)
					}
				}
			}

			// Bit-corruption crashes: flip one byte somewhere in the record
			// region; the scan must stop before the flipped record and the
			// restore must match that shorter prefix.
			for i := 0; i < trials/2; i++ {
				img := append([]byte{}, walBytes...)
				img[headerEnd+rng.Int63n(int64(len(img))-headerEnd)] ^= byte(1 + rng.Intn(255))
				crash := cloneDurableDir(t, dir, img)
				res, err := wal.Scan(bytes.NewReader(img), nil)
				if err != nil {
					t.Fatalf("corrupt trial %d: scan: %v", i, err)
				}
				g2, err := Restore(crash)
				if err != nil {
					t.Fatalf("corrupt trial %d: Restore: %v", i, err)
				}
				verifyRecovered(t, g2, n, oracleState(epochs, res.LastSeq), "corrupt")
			}

			// The uncut image recovers the complete acked history.
			g2, err := Restore(dir)
			if err != nil {
				t.Fatal(err)
			}
			verifyRecovered(t, g2, n, oracleState(epochs, ^uint64(0)), "full")
			if err := g2.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableRestartContinuesHistory exercises the full lifecycle: durable
// writes, clean close, Restore, more durable writes on the same directory,
// a checkpoint, crash, Restore again — the log seq and state must thread
// through every step.
func TestDurableRestartContinuesHistory(t *testing.T) {
	dir := t.TempDir()
	g := New(32)
	b := NewBatcher(g, WithMaxDelay(0), WithDurability(dir))
	b.InsertEdges([]Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	b.Delete(3, 4)
	b.Close()

	g2, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 2 || !g2.Connected(0, 2) || g2.Connected(3, 4) {
		t.Fatalf("restored state wrong: edges=%d", g2.NumEdges())
	}

	b2 := NewBatcher(g2, WithMaxDelay(0), WithDurability(dir))
	b2.Insert(2, 3)
	if _, err := b2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b2.Insert(4, 5)
	b2.Close()
	if s := b2.Stats(); s.Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d", s.Checkpoints)
	}

	g3, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() != 4 || !g3.Connected(0, 3) || !g3.Connected(4, 5) || g3.Connected(0, 4) {
		t.Fatalf("post-checkpoint restore wrong: edges=%d", g3.NumEdges())
	}
	if err := g3.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreNoState(t *testing.T) {
	if _, err := Restore(t.TempDir()); !errors.Is(err, ErrNoDurableState) {
		t.Fatalf("Restore of empty dir: %v", err)
	}
}

// TestRestoreStubWALIsNoState: a crash during the very first WAL creation
// leaves a sub-header stub; that is "nothing durable yet", not corruption —
// the documented first-boot pattern must keep working.
func TestRestoreStubWALIsNoState(t *testing.T) {
	for _, stub := range [][]byte{{}, []byte("conn")} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), stub, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(dir); !errors.Is(err, ErrNoDurableState) {
			t.Fatalf("Restore over %d-byte stub: %v", len(stub), err)
		}
		// And a durable Batcher must boot over the stub, not panic.
		b := NewBatcher(New(8), WithMaxDelay(0), WithDurability(dir))
		b.Insert(0, 1)
		b.Close()
		g, err := Restore(dir)
		if err != nil || !g.Connected(0, 1) {
			t.Fatalf("after reboot over stub: %v", err)
		}
	}
}

// TestRestoreRefusesLostCheckpoint: once the WAL has been truncated at a
// checkpoint, losing or corrupting that checkpoint must surface as a
// Restore error — never as a silently shrunken graph.
func TestRestoreRefusesLostCheckpoint(t *testing.T) {
	dir := t.TempDir()
	g := New(16)
	b := NewBatcher(g, WithMaxDelay(0), WithDurability(dir))
	b.Insert(0, 1)
	b.Insert(1, 2)
	ckptPath, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b.Insert(2, 3)
	b.Close()

	// Corrupt the checkpoint: acked edges {0,1},{1,2} now exist nowhere.
	if err := os.WriteFile(ckptPath, []byte("scribble"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(dir); err == nil {
		t.Fatal("Restore silently dropped the checkpointed prefix")
	}
	// Removing it entirely must fail the same way.
	if err := os.Remove(ckptPath); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(dir); err == nil {
		t.Fatal("Restore silently dropped the checkpointed prefix (file removed)")
	}
}

// TestRestoreRejectsUniverseMismatch: a checkpoint and WAL from different
// universes must produce an error before any replay, not a panic.
func TestRestoreRejectsUniverseMismatch(t *testing.T) {
	dir := t.TempDir()
	b := NewBatcher(New(64), WithMaxDelay(0), WithDurability(dir))
	b.Insert(20, 21)
	b.Close()
	if _, err := checkpoint.Write(dir, checkpoint.Snapshot{Seq: 0, N: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(dir); err == nil {
		t.Fatal("mismatched universes restored")
	}
}

func TestCheckpointWithoutDurabilityErrors(t *testing.T) {
	b := NewBatcher(New(4))
	defer b.Close()
	if _, err := b.Checkpoint(); err == nil {
		t.Fatal("Checkpoint without WithDurability succeeded")
	}
}

// TestDurableAckImpliesDurable pins the fsync ordering at the API level:
// after every single acked Insert, an immediate Restore from a copy of the
// directory must already contain the edge.
func TestDurableAckImpliesDurable(t *testing.T) {
	dir := t.TempDir()
	g := New(16)
	b := NewBatcher(g, WithMaxDelay(0), WithDurability(dir))
	defer b.Close()
	for i := int32(0); i < 6; i++ {
		b.Insert(i, i+1)
		walBytes, err := os.ReadFile(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		g2, err := Restore(cloneDurableDir(t, dir, walBytes))
		if err != nil {
			t.Fatal(err)
		}
		if !g2.Connected(0, i+1) {
			t.Fatalf("acked insert {%d,%d} not durable", i, i+1)
		}
	}
}

// TestDoSeqIsExact: the seq DoSeq returns is the caller's own epoch — the
// WAL record that committed its ops (or, for a query-only group, the last
// mutating seq its answer reflects) — never a later writer's position. A
// fence built from it therefore demands exactly the caller's writes from a
// replica, which is what keeps read-your-writes routing from degrading to
// primary-only reads under concurrent write load.
func TestDoSeqIsExact(t *testing.T) {
	dir := t.TempDir()
	g := New(64)
	b := NewBatcher(g, WithMaxDelay(0), WithDurability(dir))
	defer b.Close()

	_, s1, err := b.DoSeq([]Op{{Kind: OpInsert, U: 0, V: 1}})
	if err != nil || s1 != 1 {
		t.Fatalf("first mutating DoSeq = seq %d, %v; want 1", s1, err)
	}
	_, s2, err := b.DoSeq([]Op{{Kind: OpInsert, U: 1, V: 2}})
	if err != nil || s2 != 2 {
		t.Fatalf("second mutating DoSeq = seq %d, %v; want 2", s2, err)
	}
	// Query-only group: no record is logged; the reported position is the
	// last mutating seq the post-epoch state reflects.
	bits, s3, err := b.DoSeq([]Op{{Kind: OpQuery, U: 0, V: 2}})
	if err != nil || s3 != 2 || !bits[0] {
		t.Fatalf("query-only DoSeq = %v, seq %d, %v; want true, 2", bits, s3, err)
	}

	// Concurrent writers: every caller's seq must cover its own write —
	// replaying the WAL prefix up to that seq must contain the edge.
	const writers = 8
	var wg sync.WaitGroup
	seqs := make([]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, s, err := b.DoSeq([]Op{{Kind: OpInsert, U: int32(10 + w), V: int32(20 + w)}})
			if err != nil {
				t.Errorf("writer %d: %v", w, err)
				return
			}
			seqs[w] = s
		}(w)
	}
	wg.Wait()
	b.Flush()

	f, err := os.Open(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	firstSeq := make(map[uint64]uint64) // edge key -> seq of the record holding it
	if _, err := wal.Scan(f, func(r wal.Record) error {
		for _, e := range r.Ins {
			k := graph.Edge{U: e.U, V: e.V}.Key()
			if _, ok := firstSeq[k]; !ok {
				firstSeq[k] = r.Seq
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		k := graph.Edge{U: int32(10 + w), V: int32(20 + w)}.Key()
		logged, ok := firstSeq[k]
		if !ok {
			t.Fatalf("writer %d's edge missing from the WAL", w)
		}
		if seqs[w] != logged {
			t.Fatalf("writer %d: DoSeq reported %d but its edge committed at %d", w, seqs[w], logged)
		}
	}
}

// TestCheckpointChainCorruptDeltaFallsBack: directories written while
// incremental checkpoints existed may hold a chain — a full checkpoint,
// then delta-*.dckpt files newer than it. Deltas never truncated the WAL,
// so the full checkpoint plus the log restores the exact state; restore
// falls back to exactly that whatever the deltas hold — a well-formed one
// (planted here claiming an edge that was never written), a corrupt one, a
// stray temp file — and the directory keeps working afterwards: the next
// checkpoint prunes the retired files.
func TestCheckpointChainCorruptDeltaFallsBack(t *testing.T) {
	const n = 64
	dir := t.TempDir()
	b := NewBatcher(New(n), WithMaxDelay(0), WithDurability(dir))
	b.InsertEdges([]Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if _, err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b.Insert(5, 6)
	b.Delete(1, 2)
	seq := b.WALSeq()
	b.Insert(6, 7)
	b.Close()

	// The legacy delta layout: magic | seq, base u64 | n, nAdd, nDel u32 |
	// edges | crc32c of everything between magic and checksum.
	legacyDelta := func(seq, base uint64, add ...Edge) []byte {
		buf := append([]byte("conndlt\x01"), make([]byte, 28+8*len(add)+4)...)
		binary.LittleEndian.PutUint64(buf[8:], seq)
		binary.LittleEndian.PutUint64(buf[16:], base)
		binary.LittleEndian.PutUint32(buf[24:], n)
		binary.LittleEndian.PutUint32(buf[28:], uint32(len(add)))
		for i, e := range add {
			binary.LittleEndian.PutUint32(buf[36+8*i:], uint32(e.U))
			binary.LittleEndian.PutUint32(buf[40+8*i:], uint32(e.V))
		}
		binary.LittleEndian.PutUint32(buf[len(buf)-4:],
			crc32.Checksum(buf[8:len(buf)-4], crc32.MakeTable(crc32.Castagnoli)))
		return buf
	}
	plant := map[string][]byte{
		fmt.Sprintf("delta-%016x.dckpt", seq):       legacyDelta(seq, b.WALFloor(), Edge{U: 40, V: 41}),
		fmt.Sprintf("delta-%016x.dckpt", seq+1):     []byte("scribble"),
		fmt.Sprintf("delta-%016x.dckpt.tmp", seq+2): nil,
	}
	for name, data := range plant {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	verify := func(tag string, extra ...Edge) *Graph {
		t.Helper()
		g, err := Restore(dir)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if g.NumEdges() != 3+len(extra) || !g.Connected(0, 1) || !g.Connected(5, 7) ||
			g.Connected(1, 2) || g.Connected(40, 41) {
			t.Fatalf("%s: wrong state: edges=%d", tag, g.NumEdges())
		}
		for _, e := range extra {
			if !g.Connected(e.U, e.V) {
				t.Fatalf("%s: edge {%d,%d} lost", tag, e.U, e.V)
			}
		}
		return g
	}
	g := verify("legacy deltas present")

	// The restored graph continues durably on the same directory, through a
	// fresh full checkpoint.
	b = NewBatcher(g, WithMaxDelay(0), WithDurability(dir))
	b.Insert(8, 9)
	if _, err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b.Close()
	verify("after checkpoint", Edge{U: 8, V: 9})
	for name := range plant {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("retired delta file %s survived the next checkpoint", name)
		}
	}
}
