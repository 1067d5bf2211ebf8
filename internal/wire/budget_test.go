package wire

import (
	"bytes"
	"testing"
)

// batchFrame is a 64-op CmdBatch request of the shape the server runs:
// inserts and deletes with every eighth op a query, and the response
// answering its eight queries.
func batchFrame() (*Request, *Response) {
	req := &Request{ID: 1 << 40, Cmd: CmdBatch, NS: "default"}
	for i := 0; i < 64; i++ {
		op := Op{Kind: KindInsert, U: int32(i * 977 % 65536), V: int32(i * 7919 % 65536)}
		switch {
		case i%8 == 7:
			op.Kind = KindQuery
		case i%2 == 1:
			op.Kind = KindDelete
		}
		req.Ops = append(req.Ops, op)
	}
	resp := &Response{ID: req.ID, Seq: 1 << 20, Bits: make([]bool, 8)}
	for i := range resp.Bits {
		resp.Bits[i] = i%3 == 0
	}
	return req, resp
}

// TestAllocBudget pins the allocations of one 64-op batch frame and its
// response through the codec and the framing, each direction on its own:
// encode is Encode* plus WriteFrame into a reused buffer, decode is
// ReadFrame plus Decode* from a reader over the framed bytes.
// testing.AllocsPerRun runs at GOMAXPROCS 1 and nothing here starts a
// goroutine, so the counts are exact and the same under -cpu 1,2. Each
// budget is the count measured on go1.24.0 plus 25 %, rounded down.
func TestAllocBudget(t *testing.T) {
	req, resp := batchFrame()
	var out bytes.Buffer
	out.Grow(1 << 12)
	encode := func(p []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out.Reset()
		if err := WriteFrame(&out, p); err != nil {
			t.Fatal(err)
		}
	}
	framed := func(p []byte, err error) []byte {
		encode(p, err)
		return append([]byte(nil), out.Bytes()...)
	}
	reqFrame, respFrame := framed(EncodeRequest(req)), framed(EncodeResponse(resp))
	var in bytes.Reader
	cases := []struct {
		name     string
		measured float64
		run      func()
	}{
		// The payload buffer starts at 64 bytes and grows by append to
		// hold the 64 ops.
		{"encode-request", 6, func() { encode(EncodeRequest(req)) }},
		{"decode-request", 5, func() {
			in.Reset(reqFrame)
			p, err := ReadFrame(&in)
			if err != nil {
				t.Fatal(err)
			}
			if r, err := DecodeRequest(p); err != nil || len(r.Ops) != 64 {
				t.Fatalf("DecodeRequest: %v", err)
			}
		}},
		{"encode-response", 2, func() { encode(EncodeResponse(resp)) }},
		{"decode-response", 4, func() {
			in.Reset(respFrame)
			p, err := ReadFrame(&in)
			if err != nil {
				t.Fatal(err)
			}
			if r, err := DecodeResponse(p); err != nil || len(r.Bits) != 8 {
				t.Fatalf("DecodeResponse: %v", err)
			}
		}},
	}
	for _, c := range cases {
		budget := float64(int(c.measured * 1.25))
		got := testing.AllocsPerRun(100, c.run)
		t.Logf("%s: %v allocations (budget %v)", c.name, got, budget)
		if got > budget {
			t.Errorf("%s of a 64-op batch frame makes %v allocations, budget %v", c.name, got, budget)
		}
	}
}
