package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

func tailRecord(seq uint64, edges ...int32) Record {
	r := Record{Seq: seq}
	for i := 0; i+1 < len(edges); i += 2 {
		r.Ins = append(r.Ins, graph.Edge{U: edges[i], V: edges[i+1]})
	}
	return r
}

// TestTailFollowsLiveLog: a Tail opened on a log that is still being
// appended sees each record as it lands — Next reports "not yet" at the end
// of valid data and succeeds after the next append.
func TestTailFollowsLiveLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	tail, err := OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if _, ok, err := tail.Next(); ok || err != nil {
		t.Fatalf("Next on empty log = ok=%v err=%v, want caught-up", ok, err)
	}

	for seq := uint64(1); seq <= 20; seq++ {
		if _, err := l.Append(tailRecord(seq, int32(seq%64), int32((seq+1)%64))); err != nil {
			t.Fatal(err)
		}
		rec, ok, err := tail.Next()
		if err != nil || !ok {
			t.Fatalf("Next after append %d = ok=%v err=%v", seq, ok, err)
		}
		if rec.Seq != seq {
			t.Fatalf("Next returned seq %d, want %d", rec.Seq, seq)
		}
		if _, ok, _ := tail.Next(); ok {
			t.Fatalf("Next past the end returned a record at seq %d", seq)
		}
	}
	if got := tail.LastSeq(); got != 20 {
		t.Fatalf("tail.LastSeq = %d, want 20", got)
	}
}

// TestTailSkipsToFromSeq: records at or below fromSeq are skipped, not
// returned.
func TestTailSkipsToFromSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if _, err := l.Append(tailRecord(seq, 1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	tail, err := OpenTail(path, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	for want := uint64(8); want <= 10; want++ {
		rec, ok, err := tail.Next()
		if err != nil || !ok || rec.Seq != want {
			t.Fatalf("Next = (%d, %v, %v), want seq %d", rec.Seq, ok, err, want)
		}
	}
	if _, ok, _ := tail.Next(); ok {
		t.Fatal("Next past the last record returned a record")
	}
}

// TestTailPartialFrame: a frame whose bytes are only partially on disk (a
// concurrent append in flight) reads as "not yet" and completes later.
func TestTailPartialFrame(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(tailRecord(1, 1, 2)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := frameOf(CodecV2, tailRecord(2, 3, 4))
	for cut := 1; cut < len(enc); cut++ {
		part := filepath.Join(dir, "part.log")
		if err := os.WriteFile(part, append(append([]byte(nil), full...), enc[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		tail, err := OpenTail(part, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := tail.Next(); ok || err != nil {
			t.Fatalf("cut=%d: partial frame read as ok=%v err=%v", cut, ok, err)
		}
		// Complete the frame: the same cursor must now return the record.
		f, err := os.OpenFile(part, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(enc[cut:]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		rec, ok, err := tail.Next()
		if err != nil || !ok || rec.Seq != 2 {
			t.Fatalf("cut=%d: completed frame = (%d, %v, %v), want seq 2", cut, rec.Seq, ok, err)
		}
		tail.Close()
	}
}

// TestTailBelowFloor: asking for records the log no longer holds (fromSeq
// under the checkpoint floor) must fail with ErrSeqGone, the signal to run
// snapshot catch-up instead.
func TestTailBelowFloor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if _, err := l.Append(tailRecord(seq, 1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(5); err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	if _, err := OpenTail(path, 3); !errors.Is(err, ErrSeqGone) {
		t.Fatalf("OpenTail below floor: got %v, want ErrSeqGone", err)
	}
	tail, err := OpenTail(path, 5)
	if err != nil {
		t.Fatalf("OpenTail at floor: %v", err)
	}
	tail.Close()
}

// TestLogExposesFloor: Open and Reset publish the checkpoint floor through
// BaseSeq, so callers no longer re-derive it from the file header.
func TestLogExposesFloor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.BaseSeq(); got != 0 {
		t.Fatalf("fresh log BaseSeq = %d, want 0", got)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := l.Append(tailRecord(seq, 1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(3); err != nil {
		t.Fatal(err)
	}
	if got := l.BaseSeq(); got != 3 {
		t.Fatalf("BaseSeq after Reset(3) = %d, want 3", got)
	}
	l.Close()

	l2, err := Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.BaseSeq(); got != 3 {
		t.Fatalf("BaseSeq after reopen = %d, want 3", got)
	}
	if got := l2.LastSeq(); got != 3 {
		t.Fatalf("LastSeq after reopen = %d, want 3", got)
	}
}
