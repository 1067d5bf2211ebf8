package server

import (
	"testing"

	"repro/internal/wire"
)

// TestRoundTripAllocBudget pins the allocations of one 16-op CmdBatch round
// trip on a memory namespace, everything the server does between the frame
// payload and the response payload: DecodeRequest, handle (range checks,
// the engine's epoch with its core work, the response) and EncodeResponse.
// Socket I/O and the per-request goroutine are left out. The ops keep the
// partition fixed: on the path 0..n-1, frame r inserts 8 fresh chords and
// deletes the 8 chords frame r-1 inserted, so every op is credited and no
// label moves. AllocsPerRun runs at GOMAXPROCS 1 and each frame is one
// epoch, so the count repeats.
func TestRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("-race changes allocation counts")
	}
	const n, half, runs = 1024, 8, 100
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	ok := func(resp *wire.Response) {
		t.Helper()
		if resp.Status != wire.StatusOK {
			t.Fatalf("status %d: %s", resp.Status, resp.Msg)
		}
	}
	ok(s.handle(&wire.Request{Cmd: wire.CmdCreate, NS: "a", N: n}))
	path := &wire.Request{Cmd: wire.CmdBatch, NS: "a"}
	for v := int32(1); v < n; v++ {
		path.Ops = append(path.Ops, wire.Op{Kind: wire.KindInsert, U: v - 1, V: v})
	}
	ok(s.handle(path))

	// chord k joins k to k+2 (mod n), which the path already connects.
	chord := func(kind wire.Kind, k int) wire.Op {
		u := int32(k % n)
		return wire.Op{Kind: kind, U: u, V: (u + 2) % n}
	}
	// AllocsPerRun makes runs+1 calls; frame 0 inserts without deleting.
	payloads := make([][]byte, runs+1)
	for r := range payloads {
		req := &wire.Request{ID: uint64(r), Cmd: wire.CmdBatch, NS: "a"}
		for i := 0; i < half; i++ {
			req.Ops = append(req.Ops, chord(wire.KindInsert, r*half+i))
			if r > 0 {
				req.Ops = append(req.Ops, chord(wire.KindDelete, (r-1)*half+i))
			}
		}
		if payloads[r], err = wire.EncodeRequest(req); err != nil {
			t.Fatal(err)
		}
	}
	r := 0
	got := testing.AllocsPerRun(runs, func() {
		req, err := wire.DecodeRequest(payloads[r])
		if err != nil {
			t.Fatal(err)
		}
		resp := s.handle(req)
		if resp.Status != wire.StatusOK || !resp.Bits[0] || !resp.Bits[len(resp.Bits)-1] {
			t.Fatalf("frame %d: status %d %q, bits %v: want every op credited",
				r, resp.Status, resp.Msg, resp.Bits)
		}
		if _, err := wire.EncodeResponse(resp); err != nil {
			t.Fatal(err)
		}
		r++
	})
	// Measured 122 (go1.24.0, 2 vCPU); the budget is that plus 25 %.
	const budget = 152
	t.Logf("16-op CmdBatch round trip: %v allocations (budget %v)", got, budget)
	if got > budget {
		t.Fatalf("a 16-op CmdBatch round trip makes %v allocations, budget %v", got, budget)
	}
}
