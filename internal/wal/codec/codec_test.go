package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func testRecords() []Record {
	sorted := make([]graph.Edge, 0, 256)
	for i := int32(0); i < 256; i++ {
		sorted = append(sorted, graph.Edge{U: i * 3, V: i*3 + 1})
	}
	rng := rand.New(rand.NewSource(7))
	random := make([]graph.Edge, 0, 100)
	for i := 0; i < 100; i++ {
		random = append(random, graph.Edge{U: rng.Int31n(1 << 20), V: rng.Int31n(1 << 20)})
	}
	return []Record{
		{Seq: 1},
		{Seq: 1, Ins: []graph.Edge{{U: 0, V: 1}}},
		{Seq: 1, Del: []graph.Edge{{U: 5, V: 9}}},
		{Seq: 1, Ins: sorted, Del: sorted[:17]},
		{Seq: 1, Ins: random, Del: random},
		{Seq: 1, Ins: []graph.Edge{{U: 1<<20 - 1, V: 0}, {U: 0, V: 1<<20 - 1}}},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	const n = 1 << 20
	for _, c := range []Codec{V1, V2} {
		for i, want := range testRecords() {
			enc := c.Encode(nil, want)
			got, err := c.Decode(enc, n, want.Seq-1)
			if err != nil {
				t.Fatalf("v%d record %d: Decode: %v", c.Version(), i, err)
			}
			if got.Seq != want.Seq || len(got.Ins) != len(want.Ins) || len(got.Del) != len(want.Del) {
				t.Fatalf("v%d record %d: shape mismatch: got %+v", c.Version(), i, got)
			}
			for j := range want.Ins {
				if got.Ins[j] != want.Ins[j] {
					t.Fatalf("v%d record %d: Ins[%d] = %v, want %v", c.Version(), i, j, got.Ins[j], want.Ins[j])
				}
			}
			for j := range want.Del {
				if got.Del[j] != want.Del[j] {
					t.Fatalf("v%d record %d: Del[%d] = %v, want %v", c.Version(), i, j, got.Del[j], want.Del[j])
				}
			}
			re := c.Encode(nil, got)
			if !bytes.Equal(enc, re) {
				t.Fatalf("v%d record %d: re-encode differs: %x vs %x", c.Version(), i, enc, re)
			}
			if s, ok := Seq(enc); !ok || s != want.Seq {
				t.Fatalf("v%d record %d: Seq(enc) = %d,%v", c.Version(), i, s, ok)
			}
		}
	}
}

// TestCodecV1ByteCompat pins v1's encoding to the pre-seam fixed-width
// layout byte for byte — old WAL files must keep decoding forever.
func TestCodecV1ByteCompat(t *testing.T) {
	r := Record{Seq: 0x0102030405060708, Ins: []graph.Edge{{U: 1, V: 2}}, Del: []graph.Edge{{U: 3, V: 4}}}
	want := []byte{
		8, 7, 6, 5, 4, 3, 2, 1, // seq LE
		1, 0, 0, 0, // nIns
		1, 0, 0, 0, // nDel
		1, 0, 0, 0, 2, 0, 0, 0, // ins edge
		3, 0, 0, 0, 4, 0, 0, 0, // del edge
	}
	if got := V1.Encode(nil, r); !bytes.Equal(got, want) {
		t.Fatalf("v1 encoding drifted:\n got %x\nwant %x", got, want)
	}
	if RawSize(r) != len(want) {
		t.Fatalf("RawSize = %d, want %d", RawSize(r), len(want))
	}
}

// TestCodecV2Compresses checks the point of v2: near-sorted batches shrink
// well below the fixed-width baseline.
func TestCodecV2Compresses(t *testing.T) {
	ins := make([]graph.Edge, 4096)
	for i := range ins {
		ins[i] = graph.Edge{U: int32(i), V: int32(i + 1)}
	}
	r := Record{Seq: 9, Ins: ins}
	v2len := len(V2.Encode(nil, r))
	raw := RawSize(r)
	if v2len*3 > raw {
		t.Fatalf("v2 encoded %d bytes, raw %d — expected at least 3x shrink on a sorted batch", v2len, raw)
	}
}

func TestCodecRegistry(t *testing.T) {
	for _, c := range []Codec{V1, V2} {
		got, ok := ByVersion(c.Version())
		if !ok || got != c {
			t.Fatalf("ByVersion(%d) = %v, %v", c.Version(), got, ok)
		}
	}
	for _, v := range []byte{0, 3} {
		if _, ok := ByVersion(v); ok {
			t.Fatalf("ByVersion(%d) accepted", v)
		}
	}
}

func TestCodecDecodeRejects(t *testing.T) {
	for _, c := range []Codec{V1, V2} {
		enc := c.Encode(nil, Record{Seq: 5, Ins: []graph.Edge{{U: 7, V: 8}}})
		if _, err := c.Decode(enc, 1<<20, 3); err == nil {
			t.Fatalf("v%d: accepted seq gap", c.Version())
		}
		if _, err := c.Decode(enc, 5, 4); err == nil {
			t.Fatalf("v%d: accepted out-of-universe edge", c.Version())
		}
		if _, err := c.Decode(enc[:len(enc)-1], 1<<20, 4); err == nil {
			t.Fatalf("v%d: accepted truncated payload", c.Version())
		}
		if _, err := c.Decode(append(enc[:len(enc):len(enc)], 0), 1<<20, 4); err == nil {
			t.Fatalf("v%d: accepted trailing bytes", c.Version())
		}
	}
}
