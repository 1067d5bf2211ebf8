package repl

import (
	"bufio"
	"fmt"
	"net"
	"time"

	conn "repro"
	"repro/internal/backoff"
	"repro/internal/chaos"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Applier is the follower-side state a subscription stream applies into.
// Implementations are called from a single goroutine, in stream order.
type Applier interface {
	// AppliedSeq returns the seq of the last fully applied epoch (zero
	// before any), the resume point sent on (re)subscribe.
	AppliedSeq() uint64
	// Universe returns the vertex count of the current state — the bound
	// shipped WAL records are validated against when decoding epochraw
	// frames (a fresh snapshot replaces it).
	Universe() int
	// ApplySnapshot discards all current state and rebuilds from the
	// transferred edge set: the primary decided the follower's state is
	// unusable (behind the WAL floor, or diverged).
	ApplySnapshot(seq uint64, n int, edges []conn.Edge) error
	// ApplyEpoch applies one epoch atomically — inserts, then deletes — and
	// must make it visible to readers before returning.
	ApplyEpoch(seq uint64, ins, del []conn.Edge) error
}

// FollowerOptions tune RunFollower. The zero value selects the defaults.
type FollowerOptions struct {
	MinBackoff  time.Duration // first reconnect delay (default 50ms)
	MaxBackoff  time.Duration // backoff cap (default 2s)
	DialTimeout time.Duration // per-dial bound (default 5s)
	Logf        func(format string, args ...any)
}

func (o *FollowerOptions) defaults() {
	if o.MinBackoff <= 0 {
		o.MinBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff < o.MinBackoff {
		o.MaxBackoff = 2 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
}

// RunFollower replicates namespace ns from the primary at addr into a,
// reconnecting with exponential backoff (reset whenever a connection makes
// progress) and resuming each time from a.AppliedSeq() — so a reconnect
// after the primary's WAL floor moved past the follower simply re-runs
// catch-up, snapshot included. Returns when stop is closed. The loop never
// spins: it blocks in connection reads, in the Applier, or in the backoff
// sleep (no polling — safe on single-CPU hosts).
func RunFollower(stop <-chan struct{}, addr, ns string, a Applier, opts FollowerOptions) {
	opts.defaults()
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	bo := backoff.New(opts.MinBackoff, opts.MaxBackoff)
	for {
		select {
		case <-stop:
			return
		default:
		}
		progressed, err := streamOnce(stop, addr, ns, a, opts)
		select {
		case <-stop:
			return
		default:
		}
		if progressed {
			bo.Reset()
		}
		wait := bo.Next()
		logf("replica %s: stream from %s ended: %v; reconnecting in %v", ns, addr, err, wait)
		select {
		case <-stop:
			return
		case <-time.After(wait):
		}
	}
}

// streamOnce runs one subscription connection to completion: dial,
// subscribe from the current applied seq, apply frames until the stream
// breaks. progressed reports whether at least one frame was applied (used
// to reset the reconnect backoff).
func streamOnce(stop <-chan struct{}, addr, ns string, a Applier, opts FollowerOptions) (progressed bool, err error) {
	c, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return false, err
	}
	defer c.Close()
	// Sever the connection when stop closes, so a blocked read unblocks.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-stop:
			c.Close()
		case <-done:
		}
	}()

	payload, err := wire.EncodeRequest(&wire.Request{
		ID: 1, Cmd: wire.CmdSubscribe, NS: ns, FromSeq: a.AppliedSeq(),
	})
	if err != nil {
		return false, err
	}
	bw := bufio.NewWriter(c)
	if err := wire.WriteFrame(bw, payload); err != nil {
		return false, err
	}
	if err := bw.Flush(); err != nil {
		return false, err
	}

	br := bufio.NewReaderSize(c, 1<<16)
	// Snapshot chunks sharing a seq accumulate here until the final one.
	var snapEdges []conn.Edge
	var snapSeq uint64
	snapActive := false
	for {
		p, err := wire.ReadFrame(br)
		if err != nil {
			return progressed, err
		}
		if flt := chaos.Inject(chaos.SiteReplFollowerConn); flt != nil {
			// Dropped subscription connection: the follower falls back to
			// RunFollower's backoff-and-resubscribe loop, resuming from its
			// applied seq — mid-snapshot, the partial accumulation is
			// simply discarded.
			return progressed, flt.Err()
		}
		resp, err := wire.DecodeResponse(p)
		if err != nil {
			return progressed, err
		}
		if resp.Status != wire.StatusOK {
			return progressed, wire.StatusError(resp)
		}
		switch {
		case resp.Snapshot != nil:
			s := resp.Snapshot
			if s.N == 0 || s.N > 1<<30 {
				return progressed, fmt.Errorf("repl: snapshot universe n=%d out of range", s.N)
			}
			if !snapActive || s.Seq != snapSeq {
				snapActive, snapSeq, snapEdges = true, s.Seq, snapEdges[:0]
			}
			for _, e := range s.Edges {
				if e.U < 0 || e.V < 0 || uint32(e.U) >= s.N || uint32(e.V) >= s.N {
					return progressed, fmt.Errorf("repl: snapshot edge {%d,%d} outside universe [0,%d)", e.U, e.V, s.N)
				}
				snapEdges = append(snapEdges, conn.Edge{U: e.U, V: e.V})
			}
			if s.Final {
				if err := a.ApplySnapshot(s.Seq, int(s.N), snapEdges); err != nil {
					return progressed, err
				}
				snapActive, snapEdges = false, nil
				progressed = true
			}
		case resp.EpochRaw != nil:
			// An epoch in the primary log's codec encoding: decode through
			// the registry against the follower's universe, with
			// prevSeq = seq-1 (epoch seqs are dense, so the record's own
			// predecessor is always the previous stream position).
			er := resp.EpochRaw
			applied := a.AppliedSeq()
			if er.Seq <= applied {
				continue
			}
			if er.Seq != applied+1 {
				return progressed, fmt.Errorf("repl: epoch gap: applied through %d, stream sent %d", applied, er.Seq)
			}
			c, ok := wal.CodecByVersion(er.Codec)
			if !ok {
				return progressed, fmt.Errorf("repl: stream shipped unknown WAL codec version %d", er.Codec)
			}
			rec, err := c.Decode(er.Enc, a.Universe(), er.Seq-1)
			if err != nil {
				return progressed, fmt.Errorf("repl: undecodable raw epoch %d: %w", er.Seq, err)
			}
			if err := a.ApplyEpoch(rec.Seq, rec.Ins, rec.Del); err != nil {
				return progressed, err
			}
			progressed = true
		default:
			// Empty body: tolerated as a keep-alive.
		}
	}
}
