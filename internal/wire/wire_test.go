package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

func roundTripRequest(t *testing.T, r *Request) *Request {
	t.Helper()
	p, err := EncodeRequest(r)
	if err != nil {
		t.Fatalf("EncodeRequest: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, p); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	got, err := DecodeRequest(payload)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{ID: 1, Cmd: CmdPing},
		{ID: 2, Cmd: CmdList},
		{ID: 3, Cmd: CmdCreate, NS: "social", N: 1 << 20, Durable: true},
		{ID: 4, Cmd: CmdCreate, NS: "scratch", N: 16},
		{ID: 14, Cmd: CmdCreate, NS: "wide", N: 1 << 16, Durable: true, Shards: 4},
		{ID: 5, Cmd: CmdDrop, NS: "scratch"},
		{ID: 6, Cmd: CmdStats, NS: "social"},
		{ID: 7, Cmd: CmdCheckpoint, NS: "social"},
		{ID: 8, Cmd: CmdBatch, NS: "social", Ops: []Op{
			{Kind: KindInsert, U: 0, V: 1},
			{Kind: KindDelete, U: 7, V: 3},
			{Kind: KindQuery, U: 2, V: 2},
		}},
		{ID: 9, Cmd: CmdBatch, NS: "social", Ops: []Op{}},
		{ID: 10, Cmd: CmdReadNow, NS: "a", Pairs: []Pair{{1, 2}, {3, 4}}},
		{ID: 11, Cmd: CmdReadRecent, NS: "b", Pairs: []Pair{{0, 0}}},
		{ID: 12, Cmd: CmdSubscribe, NS: "social", FromSeq: 1 << 40},
		{ID: 13, Cmd: CmdSubscribe, NS: "g"},
		{ID: 17, Cmd: CmdSubscribe, NS: "wide", FromSeq: 7, Shards: 3},
		{ID: 18, Cmd: CmdQuery, NS: "social", QKind: 0, Linearized: true, U: 5, K: 3},
		{ID: 19, Cmd: CmdQuery, NS: "g", QKind: 3, U: 1, V: 9},
		{ID: 20, Cmd: CmdQuery, NS: "g", QKind: 4},
		{ID: 21, Cmd: CmdSubscribeEvents, NS: "g", Comps: true, Pairs: []Pair{{1, 2}, {3, 4}}},
		{ID: 22, Cmd: CmdSubscribeEvents, NS: "g"},
	}
	for _, r := range reqs {
		got := roundTripRequest(t, r)
		if got.ID != r.ID || got.Cmd != r.Cmd || got.NS != r.NS ||
			got.N != r.N || got.Durable != r.Durable || got.Shards != r.Shards ||
			got.FromSeq != r.FromSeq ||
			got.QKind != r.QKind || got.Linearized != r.Linearized ||
			got.U != r.U || got.V != r.V || got.K != r.K || got.Comps != r.Comps ||
			len(got.Ops) != len(r.Ops) || len(got.Pairs) != len(r.Pairs) {
			t.Fatalf("round trip mismatch: sent %+v, got %+v", r, got)
		}
		for i := range r.Ops {
			if got.Ops[i] != r.Ops[i] {
				t.Fatalf("op %d: sent %+v, got %+v", i, r.Ops[i], got.Ops[i])
			}
		}
		for i := range r.Pairs {
			if got.Pairs[i] != r.Pairs[i] {
				t.Fatalf("pair %d: sent %+v, got %+v", i, r.Pairs[i], got.Pairs[i])
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []*Response{
		{ID: 1, Status: StatusOK},
		{ID: 2, Status: StatusNotFound, Msg: "no such namespace"},
		{ID: 3, Status: StatusOK, Bits: []bool{true, false, true, true, false, false, true, false, true}},
		{ID: 4, Status: StatusOK, Bits: []bool{}},
		{ID: 5, Status: StatusOK, Namespaces: []NSInfo{
			{Name: "a", N: 10, Durable: true}, {Name: "b", N: 1 << 20},
			{Name: "c", N: 1 << 16, Durable: true, Shards: 8},
		}},
		{ID: 6, Status: StatusOK, Path: "/data/ns/checkpoint-0000000000000001.ckpt"},
		{ID: 7, Status: StatusOK, Stats: Stats{Epochs: 3, Ops: 100, MaxEpoch: 64,
			SnapshotPublishes: 2, SnapshotRebuilds: 1, WALRecords: 3, WALBytes: 4096,
			WALAppendNanos: 12345, Checkpoints: 1,
			Subscribers: 2, LastShippedSeq: 99, MaxFollowerLag: 4, AppliedSeq: 95,
			WALRawBytes: 8192, WALFsyncs: 2}},
		{ID: 15, Status: StatusOK, Stats: Stats{Epochs: 9, Ops: 40, Shards: []ShardStats{
			{Epochs: 4, Ops: 22, WALRecords: 4, WALSeq: 4, WALFloor: 1, AppliedSeq: 4},
			{Epochs: 5, Ops: 18, WALRecords: 5, WALSeq: 5, WALFloor: 0, AppliedSeq: 5},
		}}},
		{ID: 16, Status: StatusOK, Stats: Stats{Shards: []ShardStats{{}}}},
		{ID: 8, Status: StatusDraining, Msg: "shutting down"},
		{ID: 9, Status: StatusReadOnly, Msg: "127.0.0.1:7421"},
		{ID: 10, Status: StatusOK, Bits: []bool{true, false}, Seq: 42},
		{ID: 11, Status: StatusOK, Snapshot: &SnapshotBody{
			Seq: 17, N: 1 << 20, Final: true, Edges: []Pair{{1, 2}, {3, 4}}}},
		{ID: 12, Status: StatusOK, Snapshot: &SnapshotBody{Seq: 17, N: 8, Edges: []Pair{}}},
		{ID: 13, Status: StatusOK, EpochRaw: &EpochRawBody{
			Seq: 18, Codec: 1, Enc: []byte{0x12, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0}}},
		{ID: 14, Status: StatusOK, EpochRaw: &EpochRawBody{Seq: 19, Codec: 2, Enc: []byte{0x13, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
		{ID: 17, Status: StatusOK, EpochRaw: &EpochRawBody{
			Seq: 20, Codec: 2, Enc: []byte{0x14, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3}}},
		{ID: 19, Status: StatusOK, Stats: Stats{
			EventSubscribers: 3, EventsDelivered: 120, EventsDropped: 7}},
		{ID: 20, Status: StatusOK, Query: &QueryBody{
			Seq: 44, Found: true, Size: 3, Verts: []int32{1, 2, 3}}},
		{ID: 21, Status: StatusOK, Query: &QueryBody{
			Seq: 45, Found: true, Count: 4, Verts: []int32{}, Hist: []uint64{2, 1, 1}}},
		{ID: 22, Status: StatusOK, Query: &QueryBody{Verts: []int32{}}},
		{ID: 23, Status: StatusOK, Event: &EventBody{
			Kind: 1, Epoch: 3, Seq: 9, Label: 0, U: 4, V: 5, Others: []int32{6, 7}}},
		{ID: 24, Status: StatusOK, Event: &EventBody{
			Kind: 5, Epoch: 8, Seq: 40, Label: -1, U: -1, V: -1, Others: []int32{}}},
	}
	for _, r := range resps {
		p, err := EncodeResponse(r)
		if err != nil {
			t.Fatalf("EncodeResponse: %v", err)
		}
		got, err := DecodeResponse(p)
		if err != nil {
			t.Fatalf("DecodeResponse(%+v): %v", r, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip mismatch:\nsent %+v\ngot  %+v", r, got)
		}
	}
}

func TestReadFrameRejectsCorruption(t *testing.T) {
	p, err := EncodeRequest(&Request{ID: 9, Cmd: CmdBatch, NS: "x",
		Ops: []Op{{Kind: KindInsert, U: 1, V: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, p); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	// Flip every byte in turn: ReadFrame must either error or (if the flip
	// hit the length prefix making the frame short) report unexpected EOF —
	// never return a payload that then decodes as a different valid request.
	for i := range clean {
		dirty := append([]byte(nil), clean...)
		dirty[i] ^= 0x40
		payload, err := ReadFrame(bytes.NewReader(dirty))
		if err != nil {
			continue
		}
		got, err := DecodeRequest(payload)
		if err != nil {
			continue
		}
		// A surviving decode must be byte-identical to the original request
		// (possible only if the flip canceled out, which XOR 0x40 cannot).
		if got.ID != 9 {
			t.Fatalf("flip at %d produced a silently different request: %+v", i, got)
		}
	}

	// Truncations: every proper prefix must fail cleanly.
	for i := 0; i < len(clean); i++ {
		if _, err := ReadFrame(bytes.NewReader(clean[:i])); err == nil {
			t.Fatalf("truncation to %d bytes did not error", i)
		}
	}
}

func TestReadFrameBoundsAllocation(t *testing.T) {
	var hdr [8]byte
	hdr[0] = 0xff
	hdr[1] = 0xff
	hdr[2] = 0xff
	hdr[3] = 0x7f // ~2G length prefix
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized length prefix: got %v, want ErrFrame", err)
	}
}

func TestDecodeHostileCounts(t *testing.T) {
	// A CmdBatch whose op count claims far more elements than the payload
	// holds must fail without allocating for the claimed count.
	p, err := EncodeRequest(&Request{ID: 1, Cmd: CmdBatch, NS: "x",
		Ops: []Op{{Kind: KindInsert, U: 1, V: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	// Op count sits after id(8) + cmd(1) + nsLen(2) + ns(1).
	off := 8 + 1 + 2 + 1
	p[off], p[off+1], p[off+2], p[off+3] = 0xff, 0xff, 0xff, 0xff
	if _, err := DecodeRequest(p); err == nil {
		t.Fatal("hostile op count decoded successfully")
	}
}

func TestDecodeRejectsOversizedName(t *testing.T) {
	// A namespace string longer than maxName must be rejected by the
	// decoder, not just by the encoder — otherwise a decoded request could
	// fail to re-encode (the fuzz canonicality contract).
	var p []byte
	p = append(p, make([]byte, 8)...) // id
	p = append(p, byte(CmdDrop))
	p = append(p, 0x2c, 0x01) // nsLen = 300
	p = append(p, make([]byte, 300)...)
	if _, err := DecodeRequest(p); err == nil {
		t.Fatal("request with a 300-byte namespace decoded successfully")
	}
}

func TestDecodeRequestArbitraryBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		DecodeRequest(b)  // must not panic
		DecodeResponse(b) // must not panic
	}
}

func TestDecodeRejectsNonCanonicalQueryBytes(t *testing.T) {
	// A query request whose kind byte exceeds the enum, or whose linearized
	// flag is neither 0 nor 1, must be rejected: an accepted value has to
	// re-encode byte-identically, and the encoder only emits canonical bytes.
	clean, err := EncodeRequest(&Request{ID: 1, Cmd: CmdQuery, NS: "g", QKind: 2, U: 3})
	if err != nil {
		t.Fatal(err)
	}
	off := 8 + 1 + 2 + 1 // id + cmd + nsLen + ns
	for _, mut := range []struct {
		name string
		at   int
		b    byte
	}{
		{"query kind out of range", off, maxQueryKind + 1},
		{"non-canonical linearized flag", off + 1, 2},
	} {
		dirty := append([]byte(nil), clean...)
		dirty[mut.at] = mut.b
		if _, err := DecodeRequest(dirty); err == nil {
			t.Fatalf("%s decoded successfully", mut.name)
		}
	}

	// Same for an event body's kind byte.
	ev, err := EncodeResponse(&Response{ID: 2, Status: StatusOK,
		Event: &EventBody{Kind: 1, Epoch: 1, Seq: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ev[8+1+1] = maxEventKind + 1 // id + status + tag
	if _, err := DecodeResponse(ev); err == nil {
		t.Fatal("event with out-of-range kind decoded successfully")
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized payload: got %v, want ErrFrame", err)
	}
}

// FuzzWireDecode exercises both decoders on arbitrary bytes: neither may
// panic, and anything either accepts must re-encode and re-decode to the
// same value (the same accept-implies-canonical contract the WAL and
// checkpoint fuzzers enforce).
func FuzzWireDecode(f *testing.F) {
	seed := []*Request{
		{ID: 1, Cmd: CmdPing},
		{ID: 2, Cmd: CmdCreate, NS: "ns", N: 100, Durable: true},
		{ID: 3, Cmd: CmdBatch, NS: "g", Ops: []Op{{KindInsert, 0, 1}, {KindQuery, 1, 2}}},
		{ID: 4, Cmd: CmdReadRecent, NS: "g", Pairs: []Pair{{5, 6}}},
		{ID: 5, Cmd: CmdSubscribe, NS: "g", FromSeq: 12},
	}
	for _, r := range seed {
		p, err := EncodeRequest(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	for _, r := range []*Response{
		{ID: 7, Status: StatusOK, Bits: []bool{true, false, true}, Seq: 9},
		{ID: 8, Status: StatusOK, Snapshot: &SnapshotBody{Seq: 3, N: 64, Final: true, Edges: []Pair{{1, 2}}}},
		{ID: 9, Status: StatusOK, EpochRaw: &EpochRawBody{Seq: 4, Codec: 1, Enc: []byte{4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
		{ID: 10, Status: StatusOK, EpochRaw: &EpochRawBody{Seq: 5, Codec: 2, Enc: []byte{5, 0, 0, 0, 0, 0, 0, 0}}},
		{ID: 11, Status: StatusOK, Stats: Stats{Epochs: 2, WALRecords: 1, WALFsyncs: 1, Shards: []ShardStats{{Epochs: 1}}}},
	} {
		rp, err := EncodeResponse(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rp)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCanonical(t, data)
	})
}

// checkCanonical is the shared accept-implies-canonical oracle: anything
// either decoder accepts must re-encode and re-decode to the same value.
func checkCanonical(t *testing.T, data []byte) {
	t.Helper()
	if req, err := DecodeRequest(data); err == nil {
		re, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("accepted request failed to re-encode: %v", err)
		}
		req2, err := DecodeRequest(re)
		if err != nil {
			t.Fatalf("re-encoded request failed to decode: %v", err)
		}
		if !reflect.DeepEqual(req, req2) {
			t.Fatalf("request not canonical: %+v vs %+v", req, req2)
		}
	}
	if resp, err := DecodeResponse(data); err == nil {
		re, err := EncodeResponse(resp)
		if err != nil {
			t.Fatalf("accepted response failed to re-encode: %v", err)
		}
		resp2, err := DecodeResponse(re)
		if err != nil {
			t.Fatalf("re-encoded response failed to decode: %v", err)
		}
		if !reflect.DeepEqual(resp, resp2) {
			t.Fatalf("response not canonical: %+v vs %+v", resp, resp2)
		}
	}
}

// FuzzQueryWireDecode drives the same canonicality oracle from seeds in the
// query/event corner of the protocol: CmdQuery and CmdSubscribeEvents
// requests, query result bodies and event stream bodies, including the
// non-canonical-byte traps (flag bytes, enum bounds) the seeds sit next to.
func FuzzQueryWireDecode(f *testing.F) {
	for _, r := range []*Request{
		{ID: 1, Cmd: CmdQuery, NS: "g", QKind: 0, U: 3, K: 2},
		{ID: 2, Cmd: CmdQuery, NS: "g", QKind: 3, Linearized: true, U: 1, V: 7},
		{ID: 3, Cmd: CmdQuery, NS: "g", QKind: 4},
		{ID: 4, Cmd: CmdSubscribeEvents, NS: "g", Comps: true, Pairs: []Pair{{0, 5}}},
		{ID: 5, Cmd: CmdSubscribeEvents, NS: "g", Pairs: []Pair{}},
	} {
		p, err := EncodeRequest(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	for _, r := range []*Response{
		{ID: 6, Status: StatusOK, Query: &QueryBody{Seq: 9, Found: true, Size: 2, Verts: []int32{0, 5}}},
		{ID: 7, Status: StatusOK, Query: &QueryBody{Found: true, Count: 3, Verts: []int32{}, Hist: []uint64{1, 2}}},
		{ID: 8, Status: StatusOK, Event: &EventBody{Kind: 2, Epoch: 4, Seq: 11, Label: 0, U: 1, V: 2, Others: []int32{9}}},
		{ID: 9, Status: StatusOK, Event: &EventBody{Kind: 5, Epoch: 6, Seq: 12, Others: []int32{}}},
	} {
		p, err := EncodeResponse(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCanonical(t, data)
	})
}
