// Package wire defines the binary protocol between cmd/connserver and the
// public client package: a dependency-free, length-prefixed frame format in
// the same idiom as internal/wal (little-endian integers, CRC32-Castagnoli
// over every payload, decoders that never panic on arbitrary bytes).
//
// Frame layout (both directions, all integers little-endian):
//
//	frame   : payloadLen uint32 | crc32c(payload) uint32 | payload
//	request : id uint64 | cmd uint8 | body
//	response: id uint64 | status uint8 | body
//
// Requests and responses are matched by id, not by position: a client may
// keep many frames in flight on one connection (pipelining) and the server
// answers each as its epoch commits. That is the whole point of the
// protocol — concurrent frames blocked in an engine coalesce into the
// large epochs Theorem 1 rewards, exactly as concurrent goroutines do in
// process.
//
// Bodies per command (strings are len uint16 | bytes; booleans are packed
// little-endian into ceil(k/8) bitmap bytes):
//
//	CmdBatch      : ns | nOps uint32 | (kind uint8 | u uint32 | v uint32)*
//	                → seq uint64 | nOps uint32 | bitmap  (one bit per op)
//	CmdReadNow    : ns | nPairs uint32 | (u uint32 | v uint32)*
//	                → seq uint64 | nPairs uint32 | bitmap
//	CmdReadRecent : like CmdReadNow
//	CmdCreate     : ns | n uint32 | flags uint8 | shards uint32  (FlagDurable;
//	                shards 0 or 1 = unsharded, k >= 2 = hash-partitioned)
//	                → empty
//	CmdDrop       : ns                               → empty
//	CmdList       : empty                            → count uint32 |
//	                (ns | n uint32 | flags uint8 | shards uint32)*
//	CmdStats      : ns                               → 18 uint64 counters |
//	                nShards uint32 | (6 uint64 per shard)*
//	CmdCheckpoint : ns                               → path string
//	CmdPing       : empty                            → empty
//	CmdSubscribe  : ns | fromSeq uint64 | shard uint32 → epoch stream (below)
//	CmdQuery      : ns | qkind uint8 | linearized uint8 | u uint32 | v uint32 |
//	                k uint32
//	                → seq uint64 | found uint8 | size uint64 | count uint64 |
//	                  nVerts uint32 | (v uint32)* | nHist uint32 | (uint64)*
//	CmdSubscribeEvents : ns | comps uint8 | nPairs uint32 | (u,v)*
//	                → event stream (below)
//
// A subscription's shard field must be zero: only plain durable namespaces
// replicate, one stream each. Servers refuse CmdSubscribe, CmdQuery and
// CmdSubscribeEvents on a sharded namespace with StatusBadRequest.
//
// CmdQuery's qkind selects a structural query (internal/query's Kind enum:
// k-hop, members, size, tree path, aggregate); linearized selects the fenced
// tier. CmdSubscribeEvents turns the connection into a one-way connectivity
// event stream: comps != 0 subscribes to component merge/split events, and
// each watch pair subscribes to that pair's connected/disconnected
// transitions. The server answers with StatusOK responses carrying event
// bodies (a hello event first, acknowledging the subscription), until the
// namespace goes away or either side closes the connection:
//
//	event : kind uint8 | epoch uint64 | seq uint64 | label uint32 |
//	        u uint32 | v uint32 | nOthers uint32 | (uint32)*
//
// The seq on batch and read-tier responses is the replication position the
// answer reflects: on a primary the last durable WAL seq, on a replica the
// last applied epoch seq (zero for memory-only namespaces). Clients use it
// for read-your-writes fencing when routing bounded-stale reads to replicas.
//
// CmdSubscribe turns the connection into a one-way epoch stream: the server
// keeps pushing StatusOK responses carrying the subscribe request's id, each
// with one of three stream bodies, until the subscriber falls too far behind,
// the namespace goes away, or either side closes the connection:
//
//	snapshot : seq uint64 | n uint32 | final uint8 | count uint32 | (u,v)*
//	epochraw : seq uint64 | codec uint8 | len uint32 | bytes
//
// A snapshot tells the follower to discard its state and rebuild from the
// transferred edge set (split across consecutive frames sharing seq; the
// final flag marks the last chunk) — sent when the follower's resume point
// predates the primary's WAL floor. Epochraw frames are the WAL records
// themselves, strictly sequential from the snapshot's (or resume point's)
// seq, each in the codec encoding its log holds it in (the version byte
// from the log header) so records cross the wire without re-encoding — the
// follower decodes via the codec registry with prevSeq = seq-1.
//
// Error responses (Status != StatusOK) carry a message string instead of
// the command body. A StatusReadOnly error's message is the address of the
// primary the replica follows — a redirect, not free text.
//
//conn:decoders
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFrame bounds a single frame's payload; a longer length prefix is
// treated as a protocol error rather than an allocation request.
const MaxFrame = 1 << 26

// frameLen is the byte length of the frame header (payloadLen + crc).
const frameLen = 4 + 4

// maxName bounds a namespace name on the wire; the server enforces its own
// (stricter) validity rules on top.
const maxName = 255

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFrame is returned by ReadFrame for any malformed frame: a bad length
// prefix, a checksum mismatch, or a truncated payload. The connection is
// unusable afterwards — framing has lost sync — and should be closed.
var ErrFrame = errors.New("wire: malformed frame")

// ErrDecode is returned for a CRC-clean payload that does not decode as a
// request or response.
var ErrDecode = errors.New("wire: malformed message")

// Cmd identifies a request type.
type Cmd uint8

const (
	CmdBatch Cmd = iota + 1
	CmdReadNow
	CmdReadRecent
	CmdCreate
	CmdDrop
	CmdList
	CmdStats
	CmdCheckpoint
	CmdPing
	CmdSubscribe
	CmdQuery
	CmdSubscribeEvents
)

// Status is a response's result code. Anything but StatusOK is an error and
// the response carries only a message.
type Status uint8

const (
	StatusOK Status = iota
	// StatusBadRequest: the request was understood but invalid (vertex out
	// of range, bad namespace name, durable namespace without a data dir).
	StatusBadRequest
	// StatusNotFound: the namespace does not exist.
	StatusNotFound
	// StatusExists: Create of a namespace that already exists.
	StatusExists
	// StatusDraining: the server is shutting down and refuses new work.
	StatusDraining
	// StatusInternal: the server failed to execute a valid request.
	StatusInternal
	// StatusReadOnly: the request mutates state but was sent to a read-only
	// replica; the message is the primary's address (a redirect).
	StatusReadOnly
)

// FlagDurable marks a namespace as write-ahead-logged under the server's
// data directory.
const FlagDurable uint8 = 1 << 0

// Kind labels one operation inside a CmdBatch frame. Values match the
// coalescing layer's ordering (insert, delete, query).
type Kind uint8

const (
	KindInsert Kind = iota
	KindDelete
	KindQuery
)

// Op is one operation of a CmdBatch request.
type Op struct {
	Kind Kind
	U, V int32
}

// Pair is one vertex pair of a read-tier request.
type Pair struct {
	U, V int32
}

// NSInfo describes one namespace in a CmdList response. Shards is the hash
// partition count for sharded namespaces; 0 means unsharded.
type NSInfo struct {
	Name    string
	N       int
	Durable bool
	Shards  int
}

// Stats is the fixed counter block of a CmdStats response — the subset of
// engine.Stats that is meaningful across the wire, summed over a
// namespace's engines, plus the replication and event counters the server
// layers on top.
type Stats struct {
	Epochs            uint64
	Ops               uint64
	MaxEpoch          uint64
	SnapshotPublishes uint64
	SnapshotRebuilds  uint64
	WALRecords        uint64
	WALBytes          uint64
	WALAppendNanos    uint64
	Checkpoints       uint64

	// Durability pipeline. WALRawBytes is the pre-codec size of everything
	// logged (compare with WALBytes for the codec's ratio); WALFsyncs counts
	// the fsyncs issued.
	WALRawBytes uint64
	WALFsyncs   uint64

	// Replication. On a primary: connected epoch-stream subscribers, the
	// last epoch seq teed to them, and the largest per-subscriber lag in
	// epochs. On a replica, AppliedSeq is the last epoch applied from the
	// primary's stream (zero on a primary).
	Subscribers    uint64
	LastShippedSeq uint64
	MaxFollowerLag uint64
	AppliedSeq     uint64

	// Event hub. Connected CmdSubscribeEvents subscribers, events placed in
	// their buffers, and events discarded because a subscriber's buffer was
	// full (each drop run is later summarized to that subscriber by one gap
	// event).
	EventSubscribers uint64
	EventsDelivered  uint64
	EventsDropped    uint64

	// Shards is the per-engine breakdown of a sharded namespace, one entry
	// per shard engine plus a final entry for the boundary engine. Empty for
	// unsharded namespaces.
	Shards []ShardStats
}

// ShardStats is one engine's slice of a sharded namespace's counters.
type ShardStats struct {
	Epochs     uint64
	Ops        uint64
	WALRecords uint64
	WALSeq     uint64
	WALFloor   uint64
	AppliedSeq uint64
}

// isZero reports whether the stats block is empty, in which case a response
// carries no stats body at all.
func (s *Stats) isZero() bool {
	return len(s.Shards) == 0 && s.fields() == [numStats]uint64{}
}

const (
	numStats      = 18
	statsLen      = numStats * 8
	shardStatsLen = 6 * 8
)

// Request is one decoded client frame. Fields beyond ID/Cmd are populated
// per command as documented in the package comment.
type Request struct {
	ID      uint64
	Cmd     Cmd
	NS      string
	Ops     []Op   // CmdBatch
	Pairs   []Pair // CmdReadNow / CmdReadRecent; CmdSubscribeEvents: watch pairs
	N       uint32 // CmdCreate
	Durable bool   // CmdCreate
	Shards  uint32 // CmdCreate: 0 or 1 = unsharded, k >= 2 = hash-partitioned; CmdSubscribe: shard engine selector
	FromSeq uint64 // CmdSubscribe: resume after this epoch seq

	// CmdQuery: the structural query (QKind is internal/query's Kind enum;
	// Linearized selects the fenced tier; U/V/K are its operands).
	QKind      uint8
	Linearized bool
	U, V       int32
	K          uint32

	// CmdSubscribeEvents: subscribe to component merge/split events (the
	// watch pairs ride in Pairs).
	Comps bool
}

// maxQueryKind bounds CmdQuery's QKind byte — the highest internal/query
// Kind value (KindAggregate). The wire package is dependency-free, so the
// bound is mirrored here; query_test cross-checks the two enums.
const maxQueryKind = 4

// maxEventKind bounds an event body's kind byte — the highest
// internal/pubsub Kind value (KindGap); mirrored like maxQueryKind.
const maxEventKind = 5

// SnapshotBody is one chunk of a full-state transfer on a subscription
// stream: the follower discards its state and rebuilds from the edges of
// consecutive chunks sharing Seq; Final marks the last chunk.
type SnapshotBody struct {
	Seq   uint64
	N     uint32
	Final bool
	Edges []Pair
}

// EpochRawBody is one shipped epoch on a subscription stream, in its WAL
// codec encoding: Enc is the record payload exactly as appended to the
// primary's log and Codec is the format version byte from the log header. The follower decodes through
// the codec registry with prevSeq = Seq-1 (delta codecs encode against the
// preceding record's seq). Compressed records thus cross the wire unchanged.
type EpochRawBody struct {
	Seq   uint64
	Codec uint8
	Enc   []byte
}

// QueryBody is a CmdQuery answer: which of Size/Count/Verts/Hist is
// meaningful depends on the request's QKind (internal/query's Result
// documents the mapping). Seq is the replication position the answer
// reflects, zero for sharded namespaces.
type QueryBody struct {
	Seq   uint64
	Found bool
	Size  uint64
	Count uint64
	Verts []int32
	Hist  []uint64
}

// EventBody is one connectivity event on a CmdSubscribeEvents stream —
// internal/pubsub's Event, field for field. Kind is pubsub's Kind enum;
// Label/U/V/Others are populated per kind.
type EventBody struct {
	Kind   uint8
	Epoch  uint64
	Seq    uint64
	Label  int32
	U, V   int32
	Others []int32
}

// Response is one decoded server frame. Msg is set iff Status != StatusOK;
// the other fields are populated per the request's command.
type Response struct {
	ID         uint64
	Status     Status
	Msg        string
	Bits       []bool        // CmdBatch / read tiers
	Seq        uint64        // CmdBatch / read tiers: replication position of the answer
	Namespaces []NSInfo      // CmdList
	Stats      Stats         // CmdStats
	Path       string        // CmdCheckpoint
	Snapshot   *SnapshotBody // CmdSubscribe stream: full-state chunk
	EpochRaw   *EpochRawBody // CmdSubscribe stream: one shipped epoch in WAL codec form
	Query      *QueryBody    // CmdQuery
	Event      *EventBody    // CmdSubscribeEvents stream: one connectivity event
}

// ---------------------------------------------------------------- framing

// WriteFrame writes one length-prefixed, checksummed frame. The caller owns
// buffering and flushing (both endpoints wrap connections in bufio).
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: payload of %d bytes exceeds MaxFrame", ErrFrame, len(payload))
	}
	var hdr [frameLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame and returns its verified payload. io.EOF at a
// frame boundary is returned as io.EOF; a partial header or payload becomes
// io.ErrUnexpectedEOF; length or checksum violations return ErrFrame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [frameLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	plen := binary.LittleEndian.Uint32(hdr[0:])
	if plen > MaxFrame {
		return nil, fmt.Errorf("%w: length prefix %d exceeds MaxFrame", ErrFrame, plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrFrame)
	}
	return payload, nil
}

// ---------------------------------------------------------------- encoding

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendPairs(dst []byte, ps []Pair) []byte {
	for _, p := range ps {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.U))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.V))
	}
	return dst
}

func appendBitmap(dst []byte, bits []bool) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(bits)))
	var cur byte
	for i, b := range bits {
		if b {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if len(bits)%8 != 0 {
		dst = append(dst, cur)
	}
	return dst
}

// EncodeRequest serializes a request payload (not including the frame
// header; pass the result to WriteFrame).
func EncodeRequest(r *Request) ([]byte, error) {
	if len(r.NS) > maxName {
		return nil, fmt.Errorf("%w: namespace name of %d bytes", ErrDecode, len(r.NS))
	}
	// Presize to the payload: id and command, the length-prefixed name, at
	// most 14 bytes of fixed fields, 9 bytes per op and 8 per pair.
	size := 9 + 2 + len(r.NS) + 14 + 9*len(r.Ops) + 8*len(r.Pairs)
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, size), r.ID)
	buf = append(buf, byte(r.Cmd))
	switch r.Cmd {
	case CmdBatch:
		buf = appendString(buf, r.NS)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Ops)))
		for _, op := range r.Ops {
			buf = append(buf, byte(op.Kind))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(op.U))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(op.V))
		}
	case CmdReadNow, CmdReadRecent:
		buf = appendString(buf, r.NS)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Pairs)))
		for _, p := range r.Pairs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(p.U))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(p.V))
		}
	case CmdCreate:
		buf = appendString(buf, r.NS)
		buf = binary.LittleEndian.AppendUint32(buf, r.N)
		var flags uint8
		if r.Durable {
			flags |= FlagDurable
		}
		buf = append(buf, flags)
		buf = binary.LittleEndian.AppendUint32(buf, r.Shards)
	case CmdDrop, CmdStats, CmdCheckpoint:
		buf = appendString(buf, r.NS)
	case CmdSubscribe:
		buf = appendString(buf, r.NS)
		buf = binary.LittleEndian.AppendUint64(buf, r.FromSeq)
		buf = binary.LittleEndian.AppendUint32(buf, r.Shards)
	case CmdQuery:
		if r.QKind > maxQueryKind {
			return nil, fmt.Errorf("%w: unknown query kind %d", ErrDecode, r.QKind)
		}
		buf = appendString(buf, r.NS)
		buf = append(buf, r.QKind)
		var lin uint8
		if r.Linearized {
			lin = 1
		}
		buf = append(buf, lin)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.V))
		buf = binary.LittleEndian.AppendUint32(buf, r.K)
	case CmdSubscribeEvents:
		buf = appendString(buf, r.NS)
		var comps uint8
		if r.Comps {
			comps = 1
		}
		buf = append(buf, comps)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Pairs)))
		buf = appendPairs(buf, r.Pairs)
	case CmdList, CmdPing:
		// no body
	default:
		return nil, fmt.Errorf("%w: unknown command %d", ErrDecode, r.Cmd)
	}
	return buf, nil
}

// EncodeResponse serializes a response payload.
func EncodeResponse(r *Response) ([]byte, error) {
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, 64), r.ID)
	buf = append(buf, byte(r.Status))
	if r.Status != StatusOK {
		if len(r.Msg) > 1<<15 {
			r.Msg = r.Msg[:1<<15]
		}
		return appendString(buf, r.Msg), nil
	}
	switch {
	case r.Bits != nil:
		buf = append(buf, bodyBits)
		buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
		buf = appendBitmap(buf, r.Bits)
	case r.Snapshot != nil:
		s := r.Snapshot
		buf = append(buf, bodySnapshot)
		buf = binary.LittleEndian.AppendUint64(buf, s.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, s.N)
		var final uint8
		if s.Final {
			final = 1
		}
		buf = append(buf, final)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Edges)))
		buf = appendPairs(buf, s.Edges)
	case r.EpochRaw != nil:
		er := r.EpochRaw
		buf = append(buf, bodyEpochRaw)
		buf = binary.LittleEndian.AppendUint64(buf, er.Seq)
		buf = append(buf, er.Codec)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(er.Enc)))
		buf = append(buf, er.Enc...)
	case r.Query != nil:
		q := r.Query
		buf = append(buf, bodyQuery)
		buf = binary.LittleEndian.AppendUint64(buf, q.Seq)
		var found uint8
		if q.Found {
			found = 1
		}
		buf = append(buf, found)
		buf = binary.LittleEndian.AppendUint64(buf, q.Size)
		buf = binary.LittleEndian.AppendUint64(buf, q.Count)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(q.Verts)))
		for _, v := range q.Verts {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(q.Hist)))
		for _, h := range q.Hist {
			buf = binary.LittleEndian.AppendUint64(buf, h)
		}
	case r.Event != nil:
		ev := r.Event
		if ev.Kind > maxEventKind {
			return nil, fmt.Errorf("%w: unknown event kind %d", ErrDecode, ev.Kind)
		}
		buf = append(buf, bodyEvent)
		buf = append(buf, ev.Kind)
		buf = binary.LittleEndian.AppendUint64(buf, ev.Epoch)
		buf = binary.LittleEndian.AppendUint64(buf, ev.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.Label))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.V))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ev.Others)))
		for _, o := range ev.Others {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(o))
		}
	case r.Namespaces != nil:
		buf = append(buf, bodyList)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Namespaces)))
		for _, ns := range r.Namespaces {
			if len(ns.Name) > maxName {
				return nil, fmt.Errorf("%w: namespace name of %d bytes", ErrDecode, len(ns.Name))
			}
			buf = appendString(buf, ns.Name)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(ns.N))
			var flags uint8
			if ns.Durable {
				flags |= FlagDurable
			}
			buf = append(buf, flags)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(ns.Shards))
		}
	case r.Path != "":
		buf = append(buf, bodyPath)
		buf = appendString(buf, r.Path)
	case !r.Stats.isZero():
		buf = append(buf, bodyStats)
		for _, v := range r.Stats.fields() {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Stats.Shards)))
		for _, sh := range r.Stats.Shards {
			for _, v := range [6]uint64{sh.Epochs, sh.Ops, sh.WALRecords,
				sh.WALSeq, sh.WALFloor, sh.AppliedSeq} {
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
		}
	default:
		buf = append(buf, bodyEmpty)
	}
	return buf, nil
}

// Response body tags: the response encodes which body shape follows, so a
// response is decodable without remembering the request's command.
const (
	bodyEmpty byte = iota
	bodyBits
	bodyList
	bodyPath
	bodyStats
	bodySnapshot
	_ // retired (decoded epoch frames); reserved so later tags keep their bytes
	bodyEpochRaw
	_ // retired (incremental-checkpoint frames); reserved so later tags keep their bytes
	bodyQuery
	bodyEvent
)

func (s *Stats) fields() [numStats]uint64 {
	return [numStats]uint64{
		s.Epochs, s.Ops, s.MaxEpoch, s.SnapshotPublishes, s.SnapshotRebuilds,
		s.WALRecords, s.WALBytes, s.WALAppendNanos, s.Checkpoints,
		s.Subscribers, s.LastShippedSeq, s.MaxFollowerLag, s.AppliedSeq,
		s.WALRawBytes, s.WALFsyncs,
		s.EventSubscribers, s.EventsDelivered, s.EventsDropped,
	}
}

func (s *Stats) setFields(f [numStats]uint64) {
	s.Epochs, s.Ops, s.MaxEpoch, s.SnapshotPublishes, s.SnapshotRebuilds,
		s.WALRecords, s.WALBytes, s.WALAppendNanos, s.Checkpoints =
		f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7], f[8]
	s.Subscribers, s.LastShippedSeq, s.MaxFollowerLag, s.AppliedSeq =
		f[9], f[10], f[11], f[12]
	s.WALRawBytes, s.WALFsyncs = f[13], f[14]
	s.EventSubscribers, s.EventsDelivered, s.EventsDropped = f[15], f[16], f[17]
}

// ---------------------------------------------------------------- decoding

// reader is a bounds-checked cursor over a payload; every take reports
// failure instead of slicing out of range.
type reader struct {
	p  []byte
	ok bool
}

func (d *reader) bytes(n int) []byte {
	if !d.ok || n < 0 || len(d.p) < n {
		d.ok = false
		return nil
	}
	b := d.p[:n]
	d.p = d.p[n:]
	return b
}

func (d *reader) u8() uint8 {
	b := d.bytes(1)
	if !d.ok {
		return 0
	}
	return b[0]
}

func (d *reader) u16() uint16 {
	b := d.bytes(2)
	if !d.ok {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *reader) u32() uint32 {
	b := d.bytes(4)
	if !d.ok {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *reader) u64() uint64 {
	b := d.bytes(8)
	if !d.ok {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// flag reads a canonical boolean byte: 0 or 1 only — any other value would
// not re-encode byte-identically, so it fails the decode.
func (d *reader) flag() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.ok = false
		return false
	}
}

func (d *reader) str() string {
	n := int(d.u16())
	return string(d.bytes(n))
}

// name reads a namespace string, enforcing the same maxName bound the
// encoders apply — anything a decoder accepts must re-encode (the fuzz
// contract).
func (d *reader) name() string {
	n := int(d.u16())
	if n > maxName {
		d.ok = false
		return ""
	}
	return string(d.bytes(n))
}

// count reads a uint32 element count and validates it against the bytes
// remaining at perElem bytes each, so a hostile count cannot force a giant
// allocation.
//
//conn:validated-len
func (d *reader) count(perElem int) int {
	n := int(d.u32())
	if !d.ok || n < 0 || (perElem > 0 && n > len(d.p)/perElem) {
		d.ok = false
		return 0
	}
	return n
}

func (d *reader) bitmap() []bool {
	n := d.count(0)
	if !d.ok || n > 8*len(d.p) {
		d.ok = false
		return nil
	}
	raw := d.bytes((n + 7) / 8)
	if !d.ok {
		return nil
	}
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = raw[i/8]&(1<<(i%8)) != 0
	}
	return bits
}

// DecodeRequest parses a request payload. It never panics on arbitrary
// input; anything malformed returns ErrDecode.
func DecodeRequest(p []byte) (*Request, error) {
	d := &reader{p: p, ok: true}
	r := &Request{ID: d.u64(), Cmd: Cmd(d.u8())}
	switch r.Cmd {
	case CmdBatch:
		r.NS = d.name()
		n := d.count(9)
		if d.ok {
			r.Ops = make([]Op, n)
			for i := range r.Ops {
				r.Ops[i] = Op{Kind: Kind(d.u8()), U: int32(d.u32()), V: int32(d.u32())}
				if r.Ops[i].Kind > KindQuery {
					d.ok = false
				}
			}
		}
	case CmdReadNow, CmdReadRecent:
		r.NS = d.name()
		n := d.count(8)
		if d.ok {
			r.Pairs = make([]Pair, n)
			for i := range r.Pairs {
				r.Pairs[i] = Pair{U: int32(d.u32()), V: int32(d.u32())}
			}
		}
	case CmdCreate:
		r.NS = d.name()
		r.N = d.u32()
		r.Durable = d.u8()&FlagDurable != 0
		r.Shards = d.u32()
	case CmdDrop, CmdStats, CmdCheckpoint:
		r.NS = d.name()
	case CmdSubscribe:
		r.NS = d.name()
		r.FromSeq = d.u64()
		r.Shards = d.u32()
	case CmdQuery:
		r.NS = d.name()
		r.QKind = d.u8()
		if r.QKind > maxQueryKind {
			d.ok = false
		}
		r.Linearized = d.flag()
		r.U = int32(d.u32())
		r.V = int32(d.u32())
		r.K = d.u32()
	case CmdSubscribeEvents:
		r.NS = d.name()
		r.Comps = d.flag()
		r.Pairs = d.pairs(d.count(8))
	case CmdList, CmdPing:
		// no body
	default:
		return nil, fmt.Errorf("%w: unknown command %d", ErrDecode, r.Cmd)
	}
	if !d.ok || len(d.p) != 0 {
		return nil, fmt.Errorf("%w: bad %v request", ErrDecode, r.Cmd)
	}
	return r, nil
}

// pairs reads n vertex pairs. Callers hand it a d.count-validated n, but it
// re-checks against the remaining bytes so the bound is locally evident.
func (d *reader) pairs(n int) []Pair {
	if !d.ok {
		return nil
	}
	if n < 0 || n > len(d.p)/8 {
		d.ok = false
		return nil
	}
	ps := make([]Pair, n)
	for i := range ps {
		ps[i] = Pair{U: int32(d.u32()), V: int32(d.u32())}
	}
	if !d.ok {
		return nil
	}
	return ps
}

// verts reads n vertex ids; same locally-evident bound re-check as pairs.
func (d *reader) verts(n int) []int32 {
	if !d.ok {
		return nil
	}
	if n < 0 || n > len(d.p)/4 {
		d.ok = false
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(d.u32())
	}
	if !d.ok {
		return nil
	}
	return vs
}

// DecodeResponse parses a response payload. It never panics on arbitrary
// input; anything malformed returns ErrDecode.
func DecodeResponse(p []byte) (*Response, error) {
	d := &reader{p: p, ok: true}
	r := &Response{ID: d.u64(), Status: Status(d.u8())}
	if !d.ok || r.Status > StatusReadOnly {
		return nil, fmt.Errorf("%w: bad response status", ErrDecode)
	}
	if r.Status != StatusOK {
		r.Msg = d.str()
		if !d.ok || len(d.p) != 0 {
			return nil, fmt.Errorf("%w: bad error response", ErrDecode)
		}
		return r, nil
	}
	switch tag := d.u8(); tag {
	case bodyEmpty:
	case bodyBits:
		r.Seq = d.u64()
		r.Bits = d.bitmap()
		if r.Bits == nil && d.ok {
			r.Bits = []bool{} // distinguish "empty result" from "no body"
		}
	case bodySnapshot:
		s := &SnapshotBody{Seq: d.u64(), N: d.u32(), Final: false}
		switch d.u8() {
		case 0:
		case 1:
			s.Final = true
		default:
			d.ok = false // non-canonical flag byte would not re-encode
		}
		s.Edges = d.pairs(d.count(8))
		if d.ok {
			r.Snapshot = s
		}
	case bodyEpochRaw:
		er := &EpochRawBody{Seq: d.u64(), Codec: d.u8()}
		// The length prefix goes through the same remaining-bytes check as
		// element counts; the bytes are copied out of the payload so the
		// record may be retained past the frame buffer.
		er.Enc = append([]byte(nil), d.bytes(d.count(1))...)
		if d.ok {
			r.EpochRaw = er
		}
	case bodyQuery:
		q := &QueryBody{Seq: d.u64(), Found: d.flag(), Size: d.u64(), Count: d.u64()}
		q.Verts = d.verts(d.count(4))
		if n := d.count(8); d.ok && n > 0 {
			q.Hist = make([]uint64, n)
			for i := range q.Hist {
				q.Hist[i] = d.u64()
			}
		}
		if d.ok {
			r.Query = q
		}
	case bodyEvent:
		ev := &EventBody{Kind: d.u8(), Epoch: d.u64(), Seq: d.u64(),
			Label: int32(d.u32()), U: int32(d.u32()), V: int32(d.u32())}
		if ev.Kind > maxEventKind {
			d.ok = false
		}
		ev.Others = d.verts(d.count(4))
		if d.ok {
			r.Event = ev
		}
	case bodyList:
		n := d.count(11)
		if d.ok {
			r.Namespaces = make([]NSInfo, n)
			for i := range r.Namespaces {
				name := d.name()
				nn := d.u32()
				flags := d.u8()
				shards := d.u32()
				r.Namespaces[i] = NSInfo{Name: name, N: int(nn),
					Durable: flags&FlagDurable != 0, Shards: int(shards)}
			}
		}
	case bodyPath:
		r.Path = d.str()
	case bodyStats:
		var f [numStats]uint64
		for i := range f {
			f[i] = d.u64()
		}
		r.Stats.setFields(f)
		if n := d.count(shardStatsLen); d.ok && n > 0 {
			r.Stats.Shards = make([]ShardStats, n)
			for i := range r.Stats.Shards {
				r.Stats.Shards[i] = ShardStats{
					Epochs: d.u64(), Ops: d.u64(), WALRecords: d.u64(),
					WALSeq: d.u64(), WALFloor: d.u64(), AppliedSeq: d.u64(),
				}
			}
		}
	default:
		return nil, fmt.Errorf("%w: unknown response body tag %d", ErrDecode, tag)
	}
	if !d.ok || len(d.p) != 0 {
		return nil, fmt.Errorf("%w: bad response body", ErrDecode)
	}
	return r, nil
}

// StatusError converts a non-OK response into a Go error; the client package
// wraps these for its callers. Returns nil for StatusOK.
func StatusError(r *Response) error {
	if r.Status == StatusOK {
		return nil
	}
	return fmt.Errorf("wire: %s: %s", statusName(r.Status), r.Msg)
}

func statusName(s Status) string {
	switch s {
	case StatusBadRequest:
		return "bad request"
	case StatusNotFound:
		return "namespace not found"
	case StatusExists:
		return "namespace exists"
	case StatusDraining:
		return "server draining"
	case StatusInternal:
		return "internal error"
	case StatusReadOnly:
		return "read-only replica"
	}
	return fmt.Sprintf("status %d", s)
}
