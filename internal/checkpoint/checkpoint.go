// Package checkpoint implements durable snapshots of a connectivity graph's
// live edge set, the companion of internal/wal: a checkpoint bounds how much
// WAL a restart must replay, and lets the WAL be truncated.
//
// A snapshot file is written temp-then-rename with fsyncs on both the file
// and the directory, so at every instant the directory holds only complete,
// verifiable checkpoints. Files are named checkpoint-%016x.ckpt by the WAL
// sequence number they capture; Load picks the newest file that decodes and
// checksums cleanly, skipping damaged ones.
//
// File format (little-endian):
//
//	magic "connckp\x01" (8) | payload | crc32c(payload) uint32
//	payload: seq uint64 | n uint32 | numEdges uint32 | edges (u,v uint32 each)

//conn:decoders
//conn:durable-files
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/wal"
)

const (
	prefix  = "checkpoint-"
	suffix  = ".ckpt"
	minLen  = 8 + 16 + 4
	maxN    = 1 << 31
	hdrOff  = 8
	edgeOff = 8 + 16
)

var magic = [8]byte{'c', 'o', 'n', 'n', 'c', 'k', 'p', 1}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is returned by Decode for any byte slice that is not a
// complete, checksum-clean snapshot.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// Snapshot is the decoded state of one checkpoint: the full live edge set
// of a graph on N vertices as of WAL sequence number Seq.
type Snapshot struct {
	Seq   uint64
	N     int
	Edges []graph.Edge
}

// Encode serializes a snapshot.
func Encode(s Snapshot) []byte {
	buf := make([]byte, edgeOff+8*len(s.Edges)+4)
	copy(buf, magic[:])
	binary.LittleEndian.PutUint64(buf[hdrOff:], s.Seq)
	binary.LittleEndian.PutUint32(buf[hdrOff+8:], uint32(s.N))
	binary.LittleEndian.PutUint32(buf[hdrOff+12:], uint32(len(s.Edges)))
	for i, e := range s.Edges {
		binary.LittleEndian.PutUint32(buf[edgeOff+8*i:], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[edgeOff+8*i+4:], uint32(e.V))
	}
	binary.LittleEndian.PutUint32(buf[len(buf)-4:],
		crc32.Checksum(buf[hdrOff:len(buf)-4], castagnoli))
	return buf
}

// Decode parses and validates a snapshot file's bytes. It never panics on
// arbitrary input; anything short, checksum-corrupt, inconsistent, or
// holding out-of-universe edges returns ErrCorrupt.
func Decode(data []byte) (Snapshot, error) {
	if len(data) < minLen || [8]byte(data[:8]) != magic {
		return Snapshot{}, ErrCorrupt
	}
	payload := data[hdrOff : len(data)-4]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return Snapshot{}, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	s := Snapshot{
		Seq: binary.LittleEndian.Uint64(payload),
		N:   int(binary.LittleEndian.Uint32(payload[8:])),
	}
	numEdges := int(binary.LittleEndian.Uint32(payload[12:]))
	if s.N <= 0 || s.N > maxN || numEdges < 0 || 16+8*numEdges != len(payload) {
		return Snapshot{}, fmt.Errorf("%w: inconsistent lengths", ErrCorrupt)
	}
	s.Edges = make([]graph.Edge, numEdges)
	for i := range s.Edges {
		u := int32(binary.LittleEndian.Uint32(payload[16+8*i:]))
		v := int32(binary.LittleEndian.Uint32(payload[16+8*i+4:]))
		if u < 0 || v < 0 || int(u) >= s.N || int(v) >= s.N {
			return Snapshot{}, fmt.Errorf("%w: edge {%d,%d} outside universe [0,%d)", ErrCorrupt, u, v, s.N)
		}
		s.Edges[i] = graph.Edge{U: u, V: v}
	}
	return s, nil
}

// fileName returns the snapshot file name for a sequence number.
func fileName(seq uint64) string { return fmt.Sprintf("%s%016x%s", prefix, seq, suffix) }

// Write durably persists a snapshot into dir (write temp, fsync, rename,
// fsync dir) and returns the final path. After Write returns nil the
// snapshot survives any crash.
//
//conn:fsync-barrier
func Write(dir string, s Snapshot) (string, error) {
	final := filepath.Join(dir, fileName(s.Seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(Encode(s)); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return "", err
	}
	return final, wal.SyncDir(dir)
}

// list returns checkpoint file names in dir, newest (highest seq) first.
func list(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			names = append(names, name)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names))) // zero-padded hex: lexicographic == numeric
	return names, nil
}

// Load returns the newest snapshot in dir that decodes cleanly, skipping
// (but not deleting) damaged files. ok is false when dir holds no usable
// checkpoint.
func Load(dir string) (s Snapshot, ok bool, err error) {
	names, err := list(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return Snapshot{}, false, nil
		}
		return Snapshot{}, false, err
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		if s, err := Decode(data); err == nil {
			return s, true, nil
		}
	}
	return Snapshot{}, false, nil
}

// Prune removes every checkpoint file older than keepSeq (and any stray
// temp files), keeping the checkpoint at keepSeq itself. It also removes
// delta-* files left by the retired incremental checkpoints: they never
// truncated the WAL and no reader consults them, so the checkpoint at
// keepSeq subsumes them. Removal failures are ignored — stale checkpoints
// are garbage, not corruption.
func Prune(dir string, keepSeq uint64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keep := fileName(keepSeq)
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp") && strings.HasPrefix(name, prefix):
			os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) && name < keep:
			os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, "delta-"):
			os.Remove(filepath.Join(dir, name))
		}
	}
}
