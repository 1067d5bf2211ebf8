package chaos

// Site is one injection point threaded into production code. Its only
// constructor is site, which also registers it in Sites, so the set of
// sites is closed by the type system: Inject takes a Site, a string literal
// or a typo'd name does not compile, and the registry a schedule is parsed
// against cannot disagree with the declarations below. The zero Site is
// registered nowhere and never fires.
type Site struct{ name string }

// String returns the site's schedule name, e.g. "wal.append.pre-fsync".
func (s Site) String() string { return s.name }

// Sites is the registry: every valid injection site's name and what it
// simulates. ParseSchedule rejects rules naming anything not in this table.
var Sites = make(map[string]string)

// site declares and registers one injection site.
func site(name, doc string) Site {
	Sites[name] = doc
	return Site{name: name}
}

var (
	// SiteWALAppendPreFsync fires in wal.Log.AppendRecord before the
	// record reaches the file: Fail returns an append error (the engine
	// treats that as fail-stop and panics — a real crash); Torn
	// additionally leaves a partial frame on disk, the tail a crash
	// mid-write leaves; Delay stalls the write, then appends as usual.
	SiteWALAppendPreFsync = site("wal.append.pre-fsync",
		"WAL append fails, tears a partial frame, or stalls before the fsync")

	// SiteWALAppendPostFsync fires in wal.Log.Sync after the fsync: Fail
	// reports failure for a record that IS durable — a crash between fsync
	// and acknowledgement, so restart replays a superset of acked ops;
	// Delay stalls the barrier before it succeeds, emulating a slow volume.
	SiteWALAppendPostFsync = site("wal.append.post-fsync",
		"WAL sync fails after the fsync (durable but unacknowledged) or stalls (slow volume)")

	// SiteWALOpenTornTail fires in wal.Open on an existing log: garbage is
	// appended past the last valid record before the recovery scan, the
	// image a torn write leaves, which Open must truncate away without
	// touching any durable record.
	SiteWALOpenTornTail = site("wal.open.torn-tail",
		"WAL reopen finds a torn tail appended past the last valid record")

	// SiteEngineCheckpointReset fires in the engine's checkpoint service
	// where the WAL is truncated behind a fresh checkpoint: the reset
	// fails, forcing the fallback that keeps the old checkpoints and the
	// full log.
	SiteEngineCheckpointReset = site("engine.checkpoint.reset",
		"checkpoint's WAL truncation fails; fallback keeps old state")

	// SiteReplStreamSend fires in the hub's per-frame send to a follower:
	// Delay stalls the pump (a slow follower, overflowing its live buffer
	// into ErrLagging); Drop severs the stream mid-flight.
	SiteReplStreamSend = site("repl.stream.send",
		"replication pump to a follower stalls or drops")

	// SiteReplSnapshotSend fires per snapshot chunk during catch-up: the
	// full-state transfer is cut mid-stream and the follower must restart
	// catch-up from scratch.
	SiteReplSnapshotSend = site("repl.stream.snapshot",
		"snapshot catch-up stream is cut mid-transfer")

	// SiteReplFollowerConn fires in the follower's frame loop: the
	// subscription connection drops and the follower re-enters its
	// reconnect/backoff/catch-up path.
	SiteReplFollowerConn = site("repl.follower.conn",
		"follower's subscription connection drops")

	// SiteServerAccept fires in the server's accept loop: Delay stalls
	// accepting; Drop closes the fresh connection before it is served.
	SiteServerAccept = site("server.accept",
		"server accept loop stalls or resets fresh connections")

	// SiteServerConnRead fires per request frame read: Delay injects read
	// latency; Drop resets the connection mid-request (clients redial).
	SiteServerConnRead = site("server.conn.read",
		"server request read stalls or resets the connection")

	// SiteServerConnWrite fires per response write: Delay injects write
	// latency; Drop resets the connection under the response — the commit
	// survives, the acknowledgement is lost.
	SiteServerConnWrite = site("server.conn.write",
		"server response write stalls or resets the connection")
)
