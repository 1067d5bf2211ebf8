package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

func rec(seq uint64, edges ...int32) Record {
	r := Record{Seq: seq}
	for i := 0; i+1 < len(edges); i += 2 {
		r.Ins = append(r.Ins, graph.Edge{U: edges[i], V: edges[i+1]})
	}
	return r
}

// frameOf is the framed WAL entry of r under c — the exact bytes an append
// to a file headed by c writes.
func frameOf(c Codec, r Record) []byte {
	frame, _ := encodeFrame(c, r)
	return frame
}

// seedV1 writes an empty legacy log at path: the documented header (magic,
// version byte 1, n, baseSeq, crc32c) with no records — what an older
// build left behind.
func seedV1(t *testing.T, path string, n int, baseSeq uint64) {
	t.Helper()
	if err := os.WriteFile(path, encodeHeader(n, baseSeq, 1), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFreshLogV2EndToEnd: a freshly created log is v2; its records reopen,
// scan and tail back, and Reset keeps it v2.
func TestFreshLogV2EndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	if l.Codec() != CodecV2 {
		t.Fatalf("fresh log codec = %d, want 2", l.Codec().Version())
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if _, err := l.Append(rec(seq, int32(seq), int32(seq+1), int32(seq+2), int32(seq+3))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	f, _ := os.Open(path)
	res, err := Scan(f, nil)
	f.Close()
	if err != nil || res.Codec != 2 || res.Records != 5 || res.LastSeq != 5 || res.Torn {
		t.Fatalf("scan of v2 log: %+v, %v", res, err)
	}

	l, err = Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	if l.Codec() != CodecV2 {
		t.Fatalf("reopened log adopted codec %d, want the file's v2", l.Codec().Version())
	}
	if _, err := l.Append(rec(6, 1, 2)); err != nil {
		t.Fatal(err)
	}
	tl, err := OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if tl.Codec() != 2 {
		t.Fatalf("tail codec = %d, want 2", tl.Codec())
	}
	var got int
	for {
		r, ok, err := tl.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if r.Seq != uint64(got+1) {
			t.Fatalf("tail record seq %d, want %d", r.Seq, got+1)
		}
		got++
	}
	if got != 6 {
		t.Fatalf("tail yielded %d records, want 6", got)
	}

	if err := l.Reset(6); err != nil {
		t.Fatal(err)
	}
	if l.Codec() != CodecV2 {
		t.Fatalf("post-reset codec = %d, want 2", l.Codec().Version())
	}
	l.Close()
}

// TestV1LogUpgradesAtReset proves the migration story: a legacy v1 log
// keeps appending v1 frames — across reopens, never a mixed file — until
// Reset swaps in a v2 header.
func TestV1LogUpgradesAtReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	seedV1(t, path, 16, 0)
	hdr, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	if l.Codec() != CodecV1 {
		t.Fatalf("v1 file opened as codec %d", l.Codec().Version())
	}
	r1, r2 := rec(1, 3, 4), rec(2, 5, 6)
	if _, err := l.Append(r1); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l, err = Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	if l.Codec() != CodecV1 {
		t.Fatalf("v1 file adopted codec %d on reopen", l.Codec().Version())
	}
	if _, err := l.Append(r2); err != nil {
		t.Fatal(err)
	}
	// The file is exactly the seeded header plus two v1 frames.
	want := append(append(append([]byte{}, hdr...), frameOf(CodecV1, r1)...), frameOf(CodecV1, r2)...)
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("legacy log holds other than v1 frames (err %v):\n got %x\nwant %x", err, got, want)
	}

	if err := l.Reset(2); err != nil {
		t.Fatal(err)
	}
	if l.Codec() != CodecV2 {
		t.Fatalf("post-reset codec = %d, want 2", l.Codec().Version())
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, encodeHeader(16, 2, 2)) {
		t.Fatalf("Reset wrote header %x (err %v), want a v2 header at floor 2", got, err)
	}
	if _, err := l.Append(rec(3, 7, 8)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	f, _ := os.Open(path)
	res, err := Scan(f, nil)
	f.Close()
	if err != nil || res.Codec != 2 || res.Records != 1 || res.LastSeq != 3 {
		t.Fatalf("post-upgrade scan: %+v, %v", res, err)
	}
}

// TestSyncFrontier exercises the AppendRecord/Sync split: the synced
// frontier trails appends and NextBelow refuses to surface past it.
func TestSyncFrontier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for seq := uint64(1); seq <= 3; seq++ {
		if _, _, err := l.AppendRecord(rec(seq, 1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if l.LastSeq() != 3 || l.SyncedSeq() != 0 {
		t.Fatalf("before sync: last=%d synced=%d", l.LastSeq(), l.SyncedSeq())
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.SyncedSeq() != 3 || l.Fsyncs() == 0 {
		t.Fatalf("after sync: synced=%d fsyncs=%d", l.SyncedSeq(), l.Fsyncs())
	}
	if _, _, err := l.AppendRecord(rec(4, 1, 2)); err != nil {
		t.Fatal(err)
	}

	tl, err := OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	seen := uint64(0)
	for {
		r, raw, ok, err := tl.NextBelow(l.SyncedSeq())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(raw) == 0 {
			t.Fatal("NextBelow returned empty raw payload")
		}
		if got, err := CodecV2.Decode(raw, 16, r.Seq-1); err != nil || got.Seq != r.Seq {
			t.Fatalf("raw payload does not decode back: %v", err)
		}
		seen = r.Seq
	}
	if seen != 3 {
		t.Fatalf("NextBelow surfaced through seq %d, want the synced frontier 3", seen)
	}
	// Frontier advances; the held-back record appears.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if r, _, ok, err := tl.NextBelow(l.SyncedSeq()); err != nil || !ok || r.Seq != 4 {
		t.Fatalf("after frontier advance: %+v %v %v", r, ok, err)
	}
}

// TestTornTailMidGroupTruncatesToLastComplete: a crash after several
// unsynced appends leaves complete records (possibly past the last fsync)
// plus a torn frame; reopen keeps every complete record — a superset of the
// synced prefix, which replay idempotence absorbs — and drops only the torn
// suffix.
func TestTornTailMidGroupTruncatesToLastComplete(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec(1, 1, 2)); err != nil { // synced epoch
		t.Fatal(err)
	}
	for seq := uint64(2); seq <= 4; seq++ { // unsynced group
		if _, _, err := l.AppendRecord(rec(seq, 3, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if l.SyncedSeq() != 1 {
		t.Fatalf("synced = %d, want 1", l.SyncedSeq())
	}
	l.Close()

	// Tear the tail mid-frame: append half of what record 5 would be.
	frame, _ := encodeFrame(CodecV2, rec(5, 5, 6))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, err = Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.LastSeq() != 4 || l.SyncedSeq() != 4 {
		t.Fatalf("reopen: last=%d synced=%d, want both 4 (complete records kept, torn frame dropped)",
			l.LastSeq(), l.SyncedSeq())
	}
}
