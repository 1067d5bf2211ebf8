// Package codec implements the WAL record payload encodings behind the
// wal.Codec seam. A codec turns one epoch record into the payload bytes of
// a framed WAL entry and back; the containing file's header names the codec
// for every record in that file via its format-version byte (the last byte
// of the WAL magic), so a log written under one codec is always read back
// with the same one. Every fresh file (open of an empty path, or the
// post-checkpoint Reset swap) is written in v2.
//
// Two codecs exist:
//
//	v2 (version byte 2) — the write format: delta+varint for the
//	near-sorted edge batches the batch-dynamic structure produces: seq
//	uint64 | uvarint nIns | uvarint nDel | per list, zigzag-varint deltas
//	of (u, v) against the previous edge in that list (both components
//	reset to 0 at each list boundary). Sorted runs of edges collapse to one
//	or two bytes per component.
//
//	v1 (version byte 1) — legacy: the raw fixed-width format older logs
//	were written in: seq uint64 | nIns uint32 | nDel uint32 | (u uint32,
//	v uint32) per edge. A v1 file is decoded, and appended to in v1 so it
//	never holds mixed encodings, until its next Reset upgrades it to v2.
//	Its size formula is also the raw baseline the compression counters
//	report against (RawSize).
//
// Every codec's payload begins with the record seq as 8 little-endian
// bytes (see Seq), encoding is canonical (Decode(Encode(r)) re-encodes to
// the identical bytes), and Decode never panics on arbitrary input — the
// torn-tail recovery contract of the containing log depends on it.
//
//conn:decoders
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/graph"
)

// Record is one durable epoch: the raw insert and delete batches the
// dispatcher coalesced, in epoch order. Replaying a record is
// InsertEdges(Ins) followed by DeleteEdges(Del) — the core's batch
// operations ignore duplicates, present inserts and absent deletes, so the
// raw batches reproduce exactly the state the epoch committed.
type Record struct {
	Seq uint64
	Ins []graph.Edge
	Del []graph.Edge
}

// Codec is one payload encoding. Implementations are stateless and safe
// for concurrent use.
type Codec interface {
	// Version is the format-version byte a file header carries to name
	// this codec (the last byte of the WAL magic).
	Version() byte
	// Encode appends r's payload (no frame) to dst and returns the
	// extended slice. The encoding is canonical: re-encoding a decoded
	// record reproduces the same bytes.
	Encode(dst []byte, r Record) []byte
	// Decode validates and decodes a payload. n bounds vertex ids;
	// prevSeq enforces the strictly-sequential seq invariant. It never
	// panics on arbitrary input.
	Decode(p []byte, n int, prevSeq uint64) (Record, error)
}

// V1 is the raw fixed-width codec (format version 1).
var V1 Codec = rawV1{}

// V2 is the delta+varint codec (format version 2).
var V2 Codec = deltaV2{}

// ByVersion returns the codec a file header's version byte names.
func ByVersion(v byte) (Codec, bool) {
	switch v {
	case 1:
		return V1, true
	case 2:
		return V2, true
	}
	return nil, false
}

// RawSize returns the v1 (uncompressed fixed-width) payload size of r —
// the baseline the bytes-before/after-compression counters compare
// against. The result is derived from the record's own slice lengths, not
// from untrusted input.
//
//conn:validated-len
func RawSize(r Record) int {
	return rawMinLen + 8*(len(r.Ins)+len(r.Del))
}

// Seq extracts the sequence number from an encoded payload without
// decoding it: every codec begins its payload with the seq as 8
// little-endian bytes.
func Seq(p []byte) (uint64, bool) {
	if len(p) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(p), true
}

// rawMinLen is the v1 fixed prefix: seq + two uint32 counts.
const rawMinLen = 8 + 4 + 4

// rawV1 is the legacy fixed-width format.
type rawV1 struct{}

func (rawV1) Version() byte { return 1 }

func (rawV1) Encode(dst []byte, r Record) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Ins)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Del)))
	for _, es := range [2][]graph.Edge{r.Ins, r.Del} {
		for _, e := range es {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(e.U))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(e.V))
		}
	}
	return dst
}

func (rawV1) Decode(p []byte, n int, prevSeq uint64) (Record, error) {
	if len(p) < rawMinLen {
		return Record{}, errors.New("codec: short v1 record payload")
	}
	r := Record{Seq: binary.LittleEndian.Uint64(p)}
	nIns := int(binary.LittleEndian.Uint32(p[8:]))
	nDel := int(binary.LittleEndian.Uint32(p[12:]))
	if nIns < 0 || nDel < 0 || rawMinLen+8*(nIns+nDel) != len(p) {
		return Record{}, errors.New("codec: v1 edge counts disagree with payload length")
	}
	if r.Seq != prevSeq+1 {
		return Record{}, fmt.Errorf("codec: record seq %d after %d", r.Seq, prevSeq)
	}
	es := make([]graph.Edge, nIns+nDel)
	for i := range es {
		u := int32(binary.LittleEndian.Uint32(p[rawMinLen+8*i:]))
		v := int32(binary.LittleEndian.Uint32(p[rawMinLen+8*i+4:]))
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return Record{}, fmt.Errorf("codec: edge {%d,%d} outside universe [0,%d)", u, v, n)
		}
		es[i] = graph.Edge{U: u, V: v}
	}
	r.Ins, r.Del = es[:nIns:nIns], es[nIns:]
	return r, nil
}

// deltaV2 is the delta+varint format for near-sorted edge batches.
type deltaV2 struct{}

func (deltaV2) Version() byte { return 2 }

func (deltaV2) Encode(dst []byte, r Record) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(r.Ins)))
	dst = binary.AppendUvarint(dst, uint64(len(r.Del)))
	for _, es := range [2][]graph.Edge{r.Ins, r.Del} {
		prevU, prevV := int64(0), int64(0)
		for _, e := range es {
			dst = binary.AppendVarint(dst, int64(e.U)-prevU)
			dst = binary.AppendVarint(dst, int64(e.V)-prevV)
			prevU, prevV = int64(e.U), int64(e.V)
		}
	}
	return dst
}

func (deltaV2) Decode(p []byte, n int, prevSeq uint64) (Record, error) {
	if len(p) < 8+2 {
		return Record{}, errors.New("codec: short v2 record payload")
	}
	r := Record{Seq: binary.LittleEndian.Uint64(p)}
	if r.Seq != prevSeq+1 {
		return Record{}, fmt.Errorf("codec: record seq %d after %d", r.Seq, prevSeq)
	}
	rest := p[8:]
	nIns, k := binary.Uvarint(rest)
	if k <= 0 {
		return Record{}, errors.New("codec: v2 insert count truncated")
	}
	rest = rest[k:]
	nDel, k := binary.Uvarint(rest)
	if k <= 0 {
		return Record{}, errors.New("codec: v2 delete count truncated")
	}
	rest = rest[k:]
	// Each encoded edge takes at least two bytes (one varint byte per
	// component), so counts beyond half the remaining payload are
	// corruption, not an allocation request. Checking the counts
	// individually first keeps the sum overflow-free.
	if nIns > uint64(len(rest)) || nDel > uint64(len(rest)) {
		return Record{}, errors.New("codec: v2 edge counts exceed payload")
	}
	total := nIns + nDel
	if total > uint64(len(rest))/2 {
		return Record{}, errors.New("codec: v2 edge counts exceed payload")
	}
	es := make([]graph.Edge, int(total))
	i := 0
	for _, cnt := range [2]uint64{nIns, nDel} {
		prevU, prevV := int64(0), int64(0)
		for j := uint64(0); j < cnt; j++ {
			du, ku := binary.Varint(rest)
			if ku <= 0 {
				return Record{}, errors.New("codec: v2 edge delta truncated")
			}
			rest = rest[ku:]
			dv, kv := binary.Varint(rest)
			if kv <= 0 {
				return Record{}, errors.New("codec: v2 edge delta truncated")
			}
			rest = rest[kv:]
			u, v := prevU+du, prevV+dv
			if u < 0 || v < 0 || u >= int64(n) || v >= int64(n) {
				return Record{}, fmt.Errorf("codec: edge {%d,%d} outside universe [0,%d)", u, v, n)
			}
			es[i] = graph.Edge{U: int32(u), V: int32(v)}
			i++
			prevU, prevV = u, v
		}
	}
	if len(rest) != 0 {
		return Record{}, errors.New("codec: v2 trailing bytes after edges")
	}
	r.Ins, r.Del = es[:nIns:nIns], es[nIns:]
	return r, nil
}
