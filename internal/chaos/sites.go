package chaos

// The injection sites, one constant per hook threaded into production code.
// Every constant must appear as a key in Sites below — the one registration
// table — and every chaos.Inject call site must pass one of these constants
// (the connvet `chaossite` analyzer enforces both), so a schedule can never
// reference a site that no longer exists in the code.
const (
	// SiteWALAppendPreFsync fires in wal.Log.AppendRecord before the
	// record reaches the file: Fail returns an append error (the engine
	// treats that as fail-stop and panics — a real crash); Torn
	// additionally leaves a partial frame on disk, the tail a crash
	// mid-write leaves; Delay stalls the write, then appends as usual.
	SiteWALAppendPreFsync = "wal.append.pre-fsync"

	// SiteWALAppendPostFsync fires in wal.Log.Sync after the fsync: Fail
	// reports failure for a record that IS durable — a crash between fsync
	// and acknowledgement, so restart replays a superset of acked ops;
	// Delay stalls the barrier before it succeeds, emulating a slow volume.
	SiteWALAppendPostFsync = "wal.append.post-fsync"

	// SiteWALOpenTornTail fires in wal.Open on an existing log: garbage is
	// appended past the last valid record before the recovery scan, the
	// image a torn write leaves, which Open must truncate away without
	// touching any durable record.
	SiteWALOpenTornTail = "wal.open.torn-tail"

	// SiteEngineCheckpointReset fires in the engine's checkpoint service
	// where the WAL is truncated behind a fresh checkpoint: the reset
	// fails, forcing the fallback that keeps the old checkpoints and the
	// full log.
	SiteEngineCheckpointReset = "engine.checkpoint.reset"

	// SiteReplStreamSend fires in the hub's per-frame send to a follower:
	// Delay stalls the pump (a slow follower, overflowing its live buffer
	// into ErrLagging); Drop severs the stream mid-flight.
	SiteReplStreamSend = "repl.stream.send"

	// SiteReplSnapshotSend fires per snapshot chunk during catch-up: the
	// full-state transfer is cut mid-stream and the follower must restart
	// catch-up from scratch.
	SiteReplSnapshotSend = "repl.stream.snapshot"

	// SiteReplFollowerConn fires in the follower's frame loop: the
	// subscription connection drops and the follower re-enters its
	// reconnect/backoff/catch-up path.
	SiteReplFollowerConn = "repl.follower.conn"

	// SiteServerAccept fires in the server's accept loop: Delay stalls
	// accepting; Drop closes the fresh connection before it is served.
	SiteServerAccept = "server.accept"

	// SiteServerConnRead fires per request frame read: Delay injects read
	// latency; Drop resets the connection mid-request (clients redial).
	SiteServerConnRead = "server.conn.read"

	// SiteServerConnWrite fires per response write: Delay injects write
	// latency; Drop resets the connection under the response — the commit
	// survives, the acknowledgement is lost.
	SiteServerConnWrite = "server.conn.write"
)

// Sites is the registry: every valid injection site and what it simulates.
// ParseSchedule rejects rules naming anything not in this table.
var Sites = map[string]string{
	SiteWALAppendPreFsync:     "WAL append fails, tears a partial frame, or stalls before the fsync",
	SiteWALAppendPostFsync:    "WAL sync fails after the fsync (durable but unacknowledged) or stalls (slow volume)",
	SiteWALOpenTornTail:       "WAL reopen finds a torn tail appended past the last valid record",
	SiteEngineCheckpointReset: "checkpoint's WAL truncation fails; fallback keeps old state",
	SiteReplStreamSend:        "replication pump to a follower stalls or drops",
	SiteReplSnapshotSend:      "snapshot catch-up stream is cut mid-transfer",
	SiteReplFollowerConn:      "follower's subscription connection drops",
	SiteServerAccept:          "server accept loop stalls or resets fresh connections",
	SiteServerConnRead:        "server request read stalls or resets the connection",
	SiteServerConnWrite:       "server response write stalls or resets the connection",
}
