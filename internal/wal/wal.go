// Package wal implements the write-ahead log behind conn.Batcher's
// WithDurability mode: one length-prefixed, CRC-checksummed record per
// committed epoch that mutated the graph, made durable before the epoch is
// applied or acknowledged — group commit in the classic sense, one fsync
// amortized over every submission coalesced into the epoch, exactly the
// batching argument the paper makes for its work bounds.
//
// File layout (all integers little-endian):
//
//	header  : magic "connwal" (7) | version byte | n uint32 | baseSeq uint64 | crc32c uint32
//	record* : payloadLen uint32 | crc32c(payload) uint32 | payload
//
// The header's version byte names the Codec every payload in the file is
// encoded with (internal/wal/codec). Every fresh file — first open of an
// empty path, or the post-checkpoint Reset swap — is written in version 2,
// delta+varint for near-sorted edge batches. Version 1, the raw
// fixed-width format, is legacy: a v1 file is read back and appended to in
// v1 (a file never holds mixed encodings) until its next Reset, which
// upgrades it to v2.
//
// n is the vertex universe the log belongs to. baseSeq is the sequence
// number already captured by a checkpoint when the log was last reset; every
// record in the file has seq > baseSeq, and seqs are strictly sequential
// (baseSeq+1, baseSeq+2, ...).
//
// Durability frontier: AppendRecord only writes; Sync forces everything
// appended so far to the medium and advances SyncedSeq, the synced
// frontier. Append is the two fused. The engine calls them back to back
// per epoch and acknowledges only after Sync returns, so acked ⇒ durable;
// SyncedSeq is what replication catch-up bounds itself by, so a concurrent
// reader that observes a record between its append and its fsync never
// ships it to a follower.
//
// Recovery contract: Scan accepts any byte stream and never panics. It
// stops cleanly at the first frame that is incomplete (torn tail from a
// crash mid-write), fails its CRC, or decodes inconsistently — everything
// from that offset on is discarded and reported via ScanResult.Torn. Open
// truncates a torn tail so the next append starts at a record boundary.
//
// The log is also the replication transport (internal/repl): Tail is a
// read-only cursor that follows a live log from a given seq — replication
// catch-up streams a follower the records it missed while the dispatcher
// keeps appending.
//
//conn:decoders
//conn:durable-files
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/wal/codec"
)

// HeaderLen is the byte length of the file header; records start here.
const HeaderLen = 8 + 4 + 8 + 4

const (
	headerLen = HeaderLen
	frameLen  = 4 + 4 // payloadLen + crc
	recMinLen = 8 + 2 // seq + the smallest (v2) count encoding

	// maxPayload bounds a single record (~16M edges); anything larger is
	// treated as corruption rather than an allocation request.
	maxPayload = 1 << 27
)

// magicPrefix is the first 7 header bytes; the 8th is the codec version.
var magicPrefix = [7]byte{'c', 'o', 'n', 'n', 'w', 'a', 'l'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadHeader is returned when a WAL file exists but its header is missing,
// truncated, checksum-corrupt, names an unknown format version, or
// disagrees with the expected universe.
var ErrBadHeader = errors.New("wal: bad or missing file header")

// Record is one durable epoch (see codec.Record — the payload encodings
// live in internal/wal/codec, behind the Codec seam).
type Record = codec.Record

// Codec is the payload encoding seam (see internal/wal/codec).
type Codec = codec.Codec

// The available codecs: V2 writes every fresh file, V1 reads (and appends
// to) legacy files.
var (
	CodecV1 = codec.V1
	CodecV2 = codec.V2
)

func encodeHeader(n int, baseSeq uint64, ver byte) []byte {
	buf := make([]byte, headerLen)
	copy(buf, magicPrefix[:])
	buf[7] = ver
	binary.LittleEndian.PutUint32(buf[8:], uint32(n))
	binary.LittleEndian.PutUint64(buf[12:], baseSeq)
	binary.LittleEndian.PutUint32(buf[20:], crc32.Checksum(buf[:20], castagnoli))
	return buf
}

func decodeHeader(buf []byte) (n int, baseSeq uint64, c Codec, err error) {
	if len(buf) < headerLen || [7]byte(buf[:7]) != magicPrefix {
		return 0, 0, nil, ErrBadHeader
	}
	c, ok := codec.ByVersion(buf[7])
	if !ok {
		return 0, 0, nil, fmt.Errorf("%w: unknown format version %d", ErrBadHeader, buf[7])
	}
	if crc32.Checksum(buf[:20], castagnoli) != binary.LittleEndian.Uint32(buf[20:24]) {
		return 0, 0, nil, fmt.Errorf("%w: header checksum mismatch", ErrBadHeader)
	}
	n = int(binary.LittleEndian.Uint32(buf[8:12]))
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: vertex count %d", ErrBadHeader, n)
	}
	return n, binary.LittleEndian.Uint64(buf[12:20]), c, nil
}

// encodeFrame serializes one record as a framed WAL entry under c. The
// returned payload aliases the tail of the frame buffer and is safe to
// retain (freshly allocated per call).
func encodeFrame(c Codec, r Record) (frame, payload []byte) {
	buf := c.Encode(make([]byte, frameLen, frameLen+codec.RawSize(r)), r)
	payload = buf[frameLen:]
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	return buf, payload
}

// CodecByVersion resolves a codec by format-version byte — the lookup a
// replication follower uses to decode raw records shipped in the primary
// log's encoding.
func CodecByVersion(v byte) (Codec, bool) { return codec.ByVersion(v) }

// RawSize returns a record's fixed-width (v1) payload size — the
// uncompressed baseline the engine's compression counters compare encoded
// bytes against.
func RawSize(r Record) int { return codec.RawSize(r) }

// ReadHeader reads and validates only the file header, returning the vertex
// universe and the checkpoint floor. Recovery uses it to cross-check a WAL
// against a checkpoint before paying for a full replay scan.
func ReadHeader(r io.Reader) (n int, baseSeq uint64, err error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, ErrBadHeader
	}
	n, baseSeq, _, err = decodeHeader(hdr)
	return n, baseSeq, err
}

// ScanResult summarizes one pass over a WAL byte stream.
type ScanResult struct {
	N        int    // vertex universe from the header
	BaseSeq  uint64 // checkpoint floor recorded in the header
	LastSeq  uint64 // seq of the last valid record (BaseSeq if none)
	Records  int    // valid records decoded
	ValidLen int64  // offset one past the last valid record
	Torn     bool   // trailing bytes after ValidLen were discarded
	Codec    byte   // format version the header names
}

// Scan reads a WAL byte stream, invoking fn (if non-nil) for each valid
// record in order, decoded with the codec the header names. It never panics
// on arbitrary input: a bad header returns ErrBadHeader; an incomplete,
// checksum-corrupt, or inconsistent frame stops the scan cleanly with Torn
// set. fn's slices are freshly allocated and may be retained. A non-nil fn
// error aborts the scan and is returned.
func Scan(r io.Reader, fn func(Record) error) (ScanResult, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var res ScanResult
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return res, ErrBadHeader
	}
	n, base, c, err := decodeHeader(hdr)
	if err != nil {
		return res, err
	}
	res.N, res.BaseSeq, res.LastSeq, res.Codec = n, base, base, c.Version()
	res.ValidLen = headerLen
	frame := make([]byte, frameLen)
	var payload []byte
	for {
		if _, err := io.ReadFull(br, frame); err != nil {
			res.Torn = err != io.EOF
			return res, nil
		}
		plen := int(binary.LittleEndian.Uint32(frame))
		if plen < recMinLen || plen > maxPayload {
			res.Torn = true
			return res, nil
		}
		if cap(payload) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			res.Torn = true
			return res, nil
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[4:]) {
			res.Torn = true
			return res, nil
		}
		rec, err := c.Decode(payload, n, res.LastSeq)
		if err != nil {
			res.Torn = true
			return res, nil
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return res, err
			}
		}
		res.Records++
		res.LastSeq = rec.Seq
		res.ValidLen += int64(frameLen + plen)
	}
}

// Log is an append-only WAL handle. Appends, syncs, resets and Close are
// owned by a single goroutine (the engine's dispatcher). LastSeq, BaseSeq
// and SyncedSeq are atomic and may be read from any goroutine — replication
// stats and catch-up decisions read them concurrently with appends.
// Construct with Open.
type Log struct {
	path      string
	f         *os.File
	n         int
	codec     Codec // the open file's codec (from its header)
	lastSeq   atomic.Uint64
	syncedSeq atomic.Uint64
	baseSeq   atomic.Uint64
	fsyncs    atomic.Uint64
	closed    bool
}

// Open opens (or creates) the WAL at path for a universe of n vertices.
// An existing file is scanned end to end: its header must match n, a torn
// tail is truncated away, and appends continue after the last valid
// record's seq — in the codec the file's header names, so a legacy v1 log
// stays v1 until its next Reset. A new file is created in v2 with an
// fsynced header and an fsynced parent directory so the log itself
// survives a crash immediately after creation.
func Open(path string, n int) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	l := &Log{path: path, f: f, n: n, codec: codec.V2}
	if st.Size() < headerLen {
		// Empty, or a partial header from a crash during initial creation —
		// shorter than the header, the file cannot hold any record, so
		// re-initializing loses nothing. (A post-checkpoint floor can never
		// be in this state: Reset replaces the file atomically.)
		if err := f.Truncate(0); err != nil {
			_ = f.Close()
			return nil, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			_ = f.Close()
			return nil, err
		}
		if err := l.writeFresh(0); err != nil {
			_ = f.Close()
			return nil, err
		}
		return l, nil
	}
	if flt := chaos.Inject(chaos.SiteWALOpenTornTail); flt != nil {
		// Simulate the image a torn write leaves: garbage appended past the
		// last valid record. Scan stops at it and the truncation below
		// removes it — durable records are never touched, so this exercises
		// exactly the recovery path without being able to violate
		// acked ⇒ durable.
		garbage := []byte{0xff, 0xff, 0xff, 0xff, 0xde, 0xad, 0xbe, 0xef}
		if _, err := f.WriteAt(garbage, st.Size()); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	res, err := Scan(f, nil)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if res.N != n {
		_ = f.Close()
		return nil, fmt.Errorf("wal: open %s: %w: log universe n=%d, graph has n=%d",
			path, ErrBadHeader, res.N, n)
	}
	if res.Torn || res.ValidLen < st.Size() {
		if err := f.Truncate(res.ValidLen); err != nil {
			_ = f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(res.ValidLen, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, err
	}
	fc, _ := codec.ByVersion(res.Codec)
	l.codec = fc
	l.lastSeq.Store(res.LastSeq)
	l.syncedSeq.Store(res.LastSeq)
	l.baseSeq.Store(res.BaseSeq)
	return l, nil
}

// writeFresh initializes l.f (assumed empty) with a v2 header carrying
// baseSeq and fsyncs both the file and its directory.
func (l *Log) writeFresh(baseSeq uint64) error {
	if _, err := l.f.Write(encodeHeader(l.n, baseSeq, codec.V2.Version())); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.lastSeq.Store(baseSeq)
	l.syncedSeq.Store(baseSeq)
	l.baseSeq.Store(baseSeq)
	return SyncDir(filepath.Dir(l.path))
}

// LastSeq returns the sequence number of the last appended record (or the
// checkpoint floor if the log holds none). Records at or below SyncedSeq
// are durable; between SyncedSeq and LastSeq they are written but not yet
// forced. Safe from any goroutine.
func (l *Log) LastSeq() uint64 { return l.lastSeq.Load() }

// SyncedSeq returns the synced frontier: the seq of the last record known
// forced to the medium. Acknowledgements and replication shipping must not
// pass it. Safe from any goroutine.
func (l *Log) SyncedSeq() uint64 { return l.syncedSeq.Load() }

// Fsyncs returns the number of Sync calls that reached the medium — the
// denominator of the bytes-per-fsync and fsyncs-saved stats.
func (l *Log) Fsyncs() uint64 { return l.fsyncs.Load() }

// Codec returns the codec of the currently open file.
func (l *Log) Codec() Codec { return l.codec }

// BaseSeq returns the log's checkpoint floor: the sequence number already
// captured by a checkpoint when the log was last reset (zero for a log that
// has never been reset). Every record in the file has seq > BaseSeq. Safe
// from any goroutine — callers no longer need to re-read the file header to
// learn the floor.
func (l *Log) BaseSeq() uint64 { return l.baseSeq.Load() }

// Append writes one record and fsyncs — the classic group-commit point,
// AppendRecord and Sync fused. When Append returns a nil error the record
// is durable: any later Scan of the file yields it. The int is the framed
// byte length written.
//
//conn:fsync-barrier
func (l *Log) Append(r Record) (int, error) {
	n, _, err := l.AppendRecord(r)
	if err != nil {
		return 0, err
	}
	if err := l.Sync(); err != nil {
		return 0, err
	}
	return n, nil
}

// AppendRecord writes one framed record without forcing it to the medium:
// the record is NOT durable until a later Sync returns, and must not be
// acknowledged or shipped to a replica before then. r.Seq must be exactly
// LastSeq()+1. The returned payload is the record's codec encoding
// (freshly allocated, safe to retain) — the engine tees it to the
// replication hub so followers ship the compressed bytes unchanged.
func (l *Log) AppendRecord(r Record) (n int, payload []byte, err error) {
	if l.closed {
		return 0, nil, errors.New("wal: append to closed log")
	}
	if r.Seq != l.lastSeq.Load()+1 {
		return 0, nil, fmt.Errorf("wal: append seq %d, want %d", r.Seq, l.lastSeq.Load()+1)
	}
	enc, payload := encodeFrame(l.codec, r)
	if flt := chaos.Inject(chaos.SiteWALAppendPreFsync); flt != nil {
		switch flt.Action {
		case chaos.ActDelay:
			flt.Sleep() // a slow write: stall, then append as usual
		case chaos.ActTorn:
			// A prefix of the frame reaches the file without an fsync — the
			// tail a crash mid-append leaves. The record was never acked,
			// so the truncation on the next Open loses nothing durable.
			_, _ = l.f.Write(enc[:len(enc)/2])
			return 0, nil, flt.Err()
		default:
			return 0, nil, flt.Err()
		}
	}
	if _, err := l.f.Write(enc); err != nil {
		return 0, nil, err
	}
	l.lastSeq.Store(r.Seq)
	return len(enc), payload, nil
}

// Sync forces every record appended so far to the medium and advances the
// synced frontier. It is the durability barrier acknowledgements order
// against: a record is durable — and may be acked or shipped — only once a
// Sync covering its seq has returned.
//
//conn:fsync-barrier
func (l *Log) Sync() error {
	if l.closed {
		return errors.New("wal: sync of closed log")
	}
	target := l.lastSeq.Load()
	if err := l.f.Sync(); err != nil {
		return err
	}
	if flt := chaos.Inject(chaos.SiteWALAppendPostFsync); flt != nil {
		if flt.Action != chaos.ActDelay {
			// The fsync completed: the records ARE durable, but the caller
			// sees failure — a crash between fsync and acknowledgement. A
			// restart replays a superset of the acked history, which the
			// replay idempotence contract absorbs.
			return flt.Err()
		}
		// Delay emulates a slow volume: the fsync takes that much longer
		// before the barrier reports success.
		flt.Sleep()
	}
	l.fsyncs.Add(1)
	l.syncedSeq.Store(target)
	return nil
}

// Reset atomically replaces the log with an empty one whose header records
// baseSeq as the new floor — called after a checkpoint capturing every
// record up to baseSeq has been durably written. The fresh header is
// written in v2, which is where a legacy v1 log is upgraded. The
// replacement is write-temp-then-rename, so a crash at any point leaves
// either the old complete log or the new empty one.
func (l *Log) Reset(baseSeq uint64) error {
	if l.closed {
		return errors.New("wal: reset of closed log")
	}
	if baseSeq < l.lastSeq.Load() {
		return fmt.Errorf("wal: reset to seq %d below last appended %d", baseSeq, l.lastSeq.Load())
	}
	tmp := l.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeHeader(l.n, baseSeq, codec.V2.Version())); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		_ = f.Close()
		return err
	}
	if err := SyncDir(filepath.Dir(l.path)); err != nil {
		_ = f.Close()
		return err
	}
	old := l.f
	l.f = f
	l.codec = codec.V2
	l.lastSeq.Store(baseSeq)
	l.syncedSeq.Store(baseSeq)
	l.baseSeq.Store(baseSeq)
	return old.Close()
}

// Size returns the current byte length of the log file.
func (l *Log) Size() (int64, error) {
	st, err := l.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Close closes the file handle. Idempotent.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}

// ErrSeqGone is returned by OpenTail when the requested resume point
// precedes the log's checkpoint floor: the records needed to bridge the gap
// were truncated away behind a checkpoint, so the caller must start from a
// snapshot instead of a tail replay.
var ErrSeqGone = errors.New("wal: requested sequence precedes the checkpoint floor")

// Tail is a read-only cursor over a WAL file that can follow a live log:
// Next returns records in order and reports ok=false when it reaches the
// current end of valid data — including a frame that is only partially
// written by a concurrent append — after which a later Next retries from the
// same offset and succeeds once the frame completes. Records decode with
// the codec the tailed file's header names. Replication catch-up uses it to
// stream the tail of a log that the dispatcher is still writing.
//
// A Tail holds its own file descriptor and never buffers past a record
// boundary, so it is unaffected by the writer's position; if the log is
// atomically replaced under it (Reset after a checkpoint), the Tail simply
// reaches the old file's end and reports ok=false forever — the records past
// that point are the live stream's to deliver.
type Tail struct {
	f       *os.File
	n       int
	codec   Codec
	base    uint64
	fromSeq uint64
	scanSeq uint64 // seq of the last record decoded at off (base if none)
	off     int64
	payload []byte
}

// OpenTail opens a tail cursor that yields records with seq > fromSeq. The
// file's checkpoint floor must not exceed fromSeq (ErrSeqGone otherwise:
// the gap's records no longer exist in this file); records at or below
// fromSeq that are still present are skipped, not returned.
func OpenTail(path string, fromSeq uint64) (*Tail, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, headerLen)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		_ = f.Close()
		return nil, ErrBadHeader
	}
	n, base, c, err := decodeHeader(hdr)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if fromSeq < base {
		_ = f.Close()
		return nil, fmt.Errorf("%w: want records after seq %d, floor is %d", ErrSeqGone, fromSeq, base)
	}
	return &Tail{f: f, n: n, codec: c, base: base, fromSeq: fromSeq, scanSeq: base, off: headerLen}, nil
}

// BaseSeq returns the checkpoint floor recorded in the tailed file's header.
func (t *Tail) BaseSeq() uint64 { return t.base }

// Codec returns the format version byte of the tailed file.
func (t *Tail) Codec() byte { return t.codec.Version() }

// LastSeq returns the seq of the last record Next decoded (the floor if
// none yet) — the cursor's current position in the epoch sequence.
func (t *Tail) LastSeq() uint64 {
	if t.scanSeq > t.fromSeq {
		return t.scanSeq
	}
	return t.fromSeq
}

// Next returns the next record with seq > fromSeq. ok=false means the cursor
// is at the current end of valid data (end of file, or a frame still being
// appended); call Next again later to resume. A non-nil error is an I/O
// failure reading the file — incomplete or checksum-dirty data is never an
// error, only "not yet".
func (t *Tail) Next() (Record, bool, error) {
	rec, _, ok, err := t.next(^uint64(0), false)
	return rec, ok, err
}

// NextBelow is Next bounded by the writer's synced frontier: a record with
// seq > limit is NOT surfaced (or consumed — a later call with a higher
// limit returns it). raw is the record's encoded payload in the file's
// codec, freshly allocated; replication ships it unchanged so followers
// receive the compressed bytes. Catch-up passes the source's SyncedSeq so
// an appended-but-unsynced record — one a crash could still take back —
// never reaches a follower.
func (t *Tail) NextBelow(limit uint64) (rec Record, raw []byte, ok bool, err error) {
	return t.next(limit, true)
}

func (t *Tail) next(limit uint64, copyRaw bool) (Record, []byte, bool, error) {
	for {
		var frame [frameLen]byte
		if _, err := t.f.ReadAt(frame[:], t.off); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return Record{}, nil, false, nil
			}
			return Record{}, nil, false, err
		}
		plen := int(binary.LittleEndian.Uint32(frame[:4]))
		if plen < recMinLen || plen > maxPayload {
			// Garbage where a length prefix should be: either a torn tail the
			// writer will truncate on its next open, or mid-file corruption.
			// Both read as "no further valid records here".
			return Record{}, nil, false, nil
		}
		if cap(t.payload) < plen {
			t.payload = make([]byte, plen)
		}
		t.payload = t.payload[:plen]
		if _, err := t.f.ReadAt(t.payload, t.off+frameLen); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return Record{}, nil, false, nil // frame still being appended
			}
			return Record{}, nil, false, err
		}
		if crc32.Checksum(t.payload, castagnoli) != binary.LittleEndian.Uint32(frame[4:]) {
			return Record{}, nil, false, nil
		}
		rec, err := t.codec.Decode(t.payload, t.n, t.scanSeq)
		if err != nil {
			return Record{}, nil, false, nil
		}
		if rec.Seq > limit {
			// Past the caller's frontier: leave the cursor where it is so the
			// record is surfaced once the frontier advances over it.
			return Record{}, nil, false, nil
		}
		t.scanSeq = rec.Seq
		t.off += int64(frameLen + plen)
		if rec.Seq > t.fromSeq {
			var raw []byte
			if copyRaw {
				raw = append([]byte(nil), t.payload...)
			}
			return rec, raw, true, nil
		}
	}
}

// Close releases the cursor's file descriptor.
func (t *Tail) Close() error { return t.f.Close() }

// SyncDir fsyncs a directory so a freshly created or renamed entry is
// durable. Errors from platforms that refuse to fsync directories are
// ignored — the data-file fsyncs still bound the loss to metadata. Shared
// with internal/checkpoint.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		_ = d.Close()
		return err
	}
	return d.Close()
}
