package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/wal/codec"
)

func openT(t *testing.T, path string, n int) *Log {
	t.Helper()
	l, err := Open(path, n)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func appendT(t *testing.T, l *Log, ins, del []graph.Edge) {
	t.Helper()
	rec := Record{Seq: l.LastSeq() + 1, Ins: ins, Del: del}
	n, err := l.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	if enc := frameOf(l.Codec(), rec); n != len(enc) {
		t.Fatalf("Append reported %d bytes, encoding is %d", n, len(enc))
	}
}

func scanFile(t *testing.T, path string) (ScanResult, []Record) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []Record
	res, err := Scan(f, func(r Record) error { recs = append(recs, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	return res, recs
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path, 64)
	appendT(t, l, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, nil)
	appendT(t, l, nil, []graph.Edge{{U: 0, V: 1}})
	appendT(t, l, []graph.Edge{{U: 5, V: 6}}, []graph.Edge{{U: 2, V: 3}})
	if l.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", l.LastSeq())
	}
	l.Close()

	res, recs := scanFile(t, path)
	if res.N != 64 || res.Records != 3 || res.LastSeq != 3 || res.Torn {
		t.Fatalf("scan = %+v", res)
	}
	if len(recs[0].Ins) != 2 || len(recs[0].Del) != 0 ||
		recs[0].Ins[1] != (graph.Edge{U: 2, V: 3}) {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if len(recs[2].Ins) != 1 || len(recs[2].Del) != 1 {
		t.Fatalf("record 2 = %+v", recs[2])
	}

	// Reopen: seq continues.
	l = openT(t, path, 64)
	if l.LastSeq() != 3 {
		t.Fatalf("reopened LastSeq = %d", l.LastSeq())
	}
	appendT(t, l, []graph.Edge{{U: 7, V: 8}}, nil)
	l.Close()
	res, _ = scanFile(t, path)
	if res.Records != 4 || res.LastSeq != 4 {
		t.Fatalf("after reopen+append: %+v", res)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path, 16)
	appendT(t, l, []graph.Edge{{U: 1, V: 2}}, nil)
	appendT(t, l, []graph.Edge{{U: 3, V: 4}}, nil)
	l.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a whole record minus its last 3 bytes.
	torn := frameOf(CodecV2, Record{Seq: 3, Ins: []graph.Edge{{U: 5, V: 6}}})
	if err := os.WriteFile(path, append(append([]byte{}, clean...), torn[:len(torn)-3]...), 0o644); err != nil {
		t.Fatal(err)
	}
	l = openT(t, path, 16)
	if l.LastSeq() != 2 {
		t.Fatalf("LastSeq after torn tail = %d, want 2", l.LastSeq())
	}
	// The torn bytes must be gone: the next append lands on a clean boundary.
	appendT(t, l, []graph.Edge{{U: 7, V: 8}}, nil)
	l.Close()
	res, recs := scanFile(t, path)
	if res.Records != 3 || res.Torn {
		t.Fatalf("after truncate+append: %+v", res)
	}
	if recs[2].Ins[0] != (graph.Edge{U: 7, V: 8}) {
		t.Fatalf("record 3 = %+v", recs[2])
	}
}

func TestCRCCorruptionStopsScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path, 16)
	appendT(t, l, []graph.Edge{{U: 1, V: 2}}, nil)
	off, _ := l.Size()
	appendT(t, l, []graph.Edge{{U: 3, V: 4}}, nil)
	appendT(t, l, []graph.Edge{{U: 5, V: 6}}, nil)
	l.Close()

	data, _ := os.ReadFile(path)
	data[off+frameLen+9] ^= 0xFF // flip a payload byte of record 2
	res, err := Scan(bytes.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Record 2 fails its CRC; it and everything after is discarded.
	if res.Records != 1 || !res.Torn || res.LastSeq != 1 {
		t.Fatalf("scan of corrupted log = %+v", res)
	}
}

// TestOpenReinitializesSubHeaderStub: a file shorter than the header can
// only come from a crash during initial creation — it holds no record, so
// Open must re-initialize it instead of failing forever.
func TestOpenReinitializesSubHeaderStub(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	for _, stub := range [][]byte{{}, magicPrefix[:4], encodeHeader(16, 0, 1)[:HeaderLen-1]} {
		if err := os.WriteFile(path, stub, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, 16)
		if err != nil {
			t.Fatalf("Open over %d-byte stub: %v", len(stub), err)
		}
		appendT(t, l, []graph.Edge{{U: 1, V: 2}}, nil)
		l.Close()
		res, _ := scanFile(t, path)
		if res.Records != 1 || res.BaseSeq != 0 {
			t.Fatalf("after stub reinit: %+v", res)
		}
	}
}

func TestOpenRejectsUniverseMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	openT(t, path, 16).Close()
	if _, err := Open(path, 32); err == nil {
		t.Fatal("Open with mismatched n succeeded")
	}
}

func TestScanRejectsGarbageHeader(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("short"), bytes.Repeat([]byte{0xAB}, 64)} {
		if _, err := Scan(bytes.NewReader(data), nil); err == nil {
			t.Fatalf("Scan(%d garbage bytes) accepted the header", len(data))
		}
	}
}

func TestResetPreservesSeqFloor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path, 16)
	appendT(t, l, []graph.Edge{{U: 1, V: 2}}, nil)
	appendT(t, l, []graph.Edge{{U: 3, V: 4}}, nil)
	if err := l.Reset(2); err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 2 {
		t.Fatalf("LastSeq after reset = %d", l.LastSeq())
	}
	appendT(t, l, []graph.Edge{{U: 5, V: 6}}, nil)
	l.Close()
	res, recs := scanFile(t, path)
	if res.BaseSeq != 2 || res.Records != 1 || res.LastSeq != 3 {
		t.Fatalf("after reset: %+v", res)
	}
	if recs[0].Seq != 3 {
		t.Fatalf("surviving record seq = %d", recs[0].Seq)
	}
	// Reopen: the floor survives the restart too.
	l = openT(t, path, 16)
	if l.LastSeq() != 3 {
		t.Fatalf("reopened LastSeq = %d, want 3", l.LastSeq())
	}
	l.Close()
}

func TestAppendEnforcesSequentialSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path, 16)
	defer l.Close()
	if _, err := l.Append(Record{Seq: 2}); err == nil {
		t.Fatal("gap seq accepted")
	}
	appendT(t, l, []graph.Edge{{U: 1, V: 2}}, nil)
	if _, err := l.Append(Record{Seq: 1}); err == nil {
		t.Fatal("repeated seq accepted")
	}
}

func TestScanRejectsOutOfUniverseEdges(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(encodeHeader(4, 0, 1))
	buf.Write(frameOf(CodecV1, Record{Seq: 1, Ins: []graph.Edge{{U: 1, V: 9}}}))
	res, err := Scan(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 0 || !res.Torn {
		t.Fatalf("out-of-universe edge accepted: %+v", res)
	}
}

// FuzzWALDecode feeds arbitrary bytes to the WAL reader. The contract under
// fuzzing: never panic, never over-read, keep the strictly-sequential seq
// invariant, and only ever accept CRC-clean frames (checked structurally:
// every accepted record re-encodes to the exact bytes at its offset).
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeHeader(8, 0, 1))
	f.Add(bytes.Repeat([]byte{0x7F}, 48))
	for _, c := range []Codec{CodecV1, CodecV2} {
		valid := append([]byte{}, encodeHeader(8, 0, c.Version())...)
		valid = append(valid, frameOf(c, Record{Seq: 1, Ins: []graph.Edge{{U: 0, V: 1}}})...)
		valid = append(valid, frameOf(c, Record{Seq: 2, Del: []graph.Edge{{U: 0, V: 1}}})...)
		f.Add(valid)
		f.Add(valid[:len(valid)-5]) // torn tail
		corrupt := append([]byte{}, valid...)
		corrupt[len(corrupt)-3] ^= 0x01
		f.Add(corrupt) // CRC-violating tail
	}
	f.Add(append([]byte{}, encodeHeader(1<<30, 42, 1)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []Record
		res, err := Scan(bytes.NewReader(data), func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			if len(recs) != 0 {
				t.Fatalf("records delivered alongside error %v", err)
			}
			return
		}
		if res.ValidLen < headerLen || res.ValidLen > int64(len(data)) {
			t.Fatalf("ValidLen %d outside [header, len] for %d bytes", res.ValidLen, len(data))
		}
		if res.LastSeq-res.BaseSeq != uint64(res.Records) || len(recs) != res.Records {
			t.Fatalf("seq accounting broken: %+v with %d records", res, len(recs))
		}
		// Every accepted record must re-encode, under the codec the header
		// names, to the exact on-disk bytes — i.e. only CRC-clean,
		// canonically framed records are ever accepted.
		c, _ := codec.ByVersion(res.Codec)
		off := int64(headerLen)
		for i, r := range recs {
			enc := frameOf(c, r)
			if !bytes.Equal(enc, data[off:off+int64(len(enc))]) {
				t.Fatalf("record %d does not round-trip at offset %d", i, off)
			}
			off += int64(len(enc))
			for _, e := range append(r.Ins, r.Del...) {
				if int(e.U) >= res.N || int(e.V) >= res.N || e.U < 0 || e.V < 0 {
					t.Fatalf("record %d leaked out-of-universe edge %v", i, e)
				}
			}
		}
		if off != res.ValidLen {
			t.Fatalf("ValidLen %d but records end at %d", res.ValidLen, off)
		}
	})
}
