// Conncli is a stream processor for dynamic connectivity: it reads a
// whitespace-separated command stream (file or stdin), applies updates in
// batches, and prints query answers. It is the shape of tool the paper's
// introduction motivates — ingesting bursts of graph changes while
// interleaving connectivity questions.
//
// Command language (one command per line; '#' starts a comment):
//
//	n <count>        declare the vertex universe (must come first)
//	+ <u> <v>        insert edge (buffered into the current batch)
//	- <u> <v>        delete edge (buffered)
//	? <u> <v>        connectivity query (flushes pending updates first)
//	flush            apply pending updates now
//	components       print the number of connected components
//	size <u>         print the size of u's component
//	khop <u> <k>     print the vertices within k hops of u, ascending
//	members <u>      print the vertices of u's component, ascending
//	path <u> <v>     print a spanning-forest path u..v, or "none"
//	agg              print the component count and log2 size histogram
//	watch <u> <v>    subscribe to {u,v} connectivity events (-addr only)
//	watch comps      subscribe to component merge/split events (-addr only)
//	event            flush, then print the next subscription event (-addr only)
//	stats            print internal counters
//	checkpoint       durably snapshot the graph and truncate the WAL (-data only)
//
// Updates accumulate until a query/flush/EOF, then apply as two batches
// (deletions, then insertions), so a burst of '+'/'-' lines costs two
// parallel batch operations regardless of its length.
//
// With -data DIR the session is durable: every applied batch is fsynced to
// a write-ahead log in DIR before it is acknowledged, 'checkpoint' bounds
// the log, and a later invocation with the same -data restores the graph
// (checkpoint + WAL tail) before reading its command stream — in that case
// the universe is already declared and 'n' must be omitted. A durable
// session's 'stats' adds a WAL line (records, bytes, checkpoints, and the
// log's floor/last sequence numbers).
//
// With -addr HOST:PORT the same command stream drives a remote connserver
// namespace (-ns, default "default") through the client package instead of
// a local graph: 'n <count> [durable]' creates the namespace (omit it if it
// already exists), updates ride batched CmdBatch frames, '?' is a
// linearized query, the structural queries (khop/members/path/agg) ride
// CmdQuery frames, 'watch'/'event' drive a live CmdSubscribeEvents stream,
// and 'stats' prints the server's counters — including the replication
// block (connected subscribers, last shipped seq, max follower lag on a
// primary; applied seq on a replica), the event-hub block (subscribers,
// delivered and dropped event counts), and, for a sharded namespace, one
// line per shard engine with its epoch count and WAL seq/floor, boundary
// engine last. 'components' and 'size' are local-only (ComponentAggregate
// and ComponentSize cover them remotely); 'watch'/'event' are remote-only
// (events are pushed by a server's epoch pipeline).
//
//	go run ./cmd/conncli workload.txt
//	generate-stream | go run ./cmd/conncli
//	go run ./cmd/conncli -data /var/lib/conn workload.txt
//	go run ./cmd/conncli -addr localhost:7421 -ns social workload.txt
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	conn "repro"
	"repro/client"
	"repro/internal/query"
)

func main() {
	data := flag.String("data", "", "durability directory: restore from it at startup, WAL every batch into it")
	addr := flag.String("addr", "", "connserver address: drive a remote namespace instead of a local graph")
	ns := flag.String("ns", "default", "remote namespace name (with -addr)")
	flag.Parse()
	if *data != "" && *addr != "" {
		fmt.Fprintln(os.Stderr, "conncli: -data is local-only; a remote namespace's durability is the server's")
		os.Exit(2)
	}
	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	if err := run(in, os.Stdout, *data, *addr, *ns); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

type session struct {
	g       *conn.Graph
	b       *conn.Batcher // non-nil iff the session is durable
	dataDir string

	rcl    *client.Client    // non-nil iff the session is remote (-addr)
	remote *client.Namespace // the driven remote namespace
	nsName string
	esub   *client.EventSub // live event subscription ('watch'); at most one

	ins  []conn.Edge
	dels []conn.Edge
	out  io.Writer
}

// flush applies pending updates: deletions first, then insertions. In a
// durable session each batch is one fsynced epoch through the Batcher; the
// driver is single-threaded, so between commands the dispatcher is idle and
// the Graph's read-only queries remain safe to call directly. In a remote
// session each batch is one CmdBatch frame, committed as one server epoch.
func (s *session) flush() error {
	if s.remote != nil {
		if len(s.dels) > 0 {
			if _, err := s.remote.DeleteEdges(s.dels); err != nil {
				return err
			}
			s.dels = s.dels[:0]
		}
		if len(s.ins) > 0 {
			if _, err := s.remote.InsertEdges(s.ins); err != nil {
				return err
			}
			s.ins = s.ins[:0]
		}
		return nil
	}
	if s.g == nil {
		return nil
	}
	if len(s.dels) > 0 {
		if s.b != nil {
			s.b.DeleteEdges(s.dels)
		} else {
			s.g.DeleteEdges(s.dels)
		}
		s.dels = s.dels[:0]
	}
	if len(s.ins) > 0 {
		if s.b != nil {
			s.b.InsertEdges(s.ins)
		} else {
			s.g.InsertEdges(s.ins)
		}
		s.ins = s.ins[:0]
	}
	return nil
}

// attach wires the freshly created or restored graph into a durable Batcher
// when the session has a data directory.
func (s *session) attach(g *conn.Graph) {
	s.g = g
	if s.dataDir != "" {
		s.b = conn.NewBatcher(g, conn.WithMaxDelay(0), conn.WithDurability(s.dataDir))
	}
}

func (s *session) close() {
	if s.b != nil {
		s.b.Close()
		s.b = nil
	}
	if s.esub != nil {
		s.esub.Close()
		s.esub = nil
	}
	if s.rcl != nil {
		s.rcl.Close()
		s.rcl = nil
	}
}

func run(in io.Reader, out io.Writer, dataDir, addr, nsName string) error {
	s := &session{out: out, dataDir: dataDir, nsName: nsName}
	defer s.close()
	if addr != "" {
		cl, err := client.Dial(addr)
		if err != nil {
			return err
		}
		s.rcl = cl
		s.remote = cl.Namespace(nsName)
	}
	if dataDir != "" {
		g, err := conn.Restore(dataDir)
		switch {
		case err == nil:
			s.attach(g)
		case errors.Is(err, conn.ErrNoDurableState):
			// Fresh directory: the script's 'n' command will create it.
		default:
			return err
		}
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		if err := s.exec(text); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := s.flush(); err != nil {
		return err
	}
	return sc.Err()
}

func (s *session) exec(text string) error {
	fields := strings.Fields(text)
	cmd := fields[0]
	argN := func(i int) (int32, error) {
		if i >= len(fields) {
			return 0, fmt.Errorf("%s: missing argument %d", cmd, i)
		}
		v, err := strconv.Atoi(fields[i])
		if err != nil {
			return 0, fmt.Errorf("%s: bad argument %q", cmd, fields[i])
		}
		return int32(v), nil
	}
	if cmd != "n" && s.g == nil && s.remote == nil {
		return fmt.Errorf("%s before 'n <count>'", cmd)
	}
	switch cmd {
	case "n":
		v, err := argN(1)
		if err != nil {
			return err
		}
		if v <= 0 {
			return fmt.Errorf("n must be positive")
		}
		if s.remote != nil {
			durable := false
			if len(fields) > 2 {
				if fields[2] != "durable" {
					return fmt.Errorf("n: unknown flag %q (want 'durable')", fields[2])
				}
				durable = true
			}
			return s.rcl.Create(s.nsName, int(v), durable)
		}
		if s.g != nil {
			return fmt.Errorf("universe already declared")
		}
		s.attach(conn.New(int(v)))
	case "+", "-":
		u, err := argN(1)
		if err != nil {
			return err
		}
		v, err := argN(2)
		if err != nil {
			return err
		}
		if s.g != nil && (u < 0 || v < 0 || int(u) >= s.g.N() || int(v) >= s.g.N()) {
			return fmt.Errorf("vertex out of range [0,%d)", s.g.N())
		}
		if cmd == "+" {
			s.ins = append(s.ins, conn.Edge{U: u, V: v})
		} else {
			s.dels = append(s.dels, conn.Edge{U: u, V: v})
		}
	case "?":
		u, err := argN(1)
		if err != nil {
			return err
		}
		v, err := argN(2)
		if err != nil {
			return err
		}
		if err := s.flush(); err != nil {
			return err
		}
		if s.remote != nil {
			ok, err := s.remote.Connected(u, v)
			if err != nil {
				return err
			}
			fmt.Fprintln(s.out, ok)
			return nil
		}
		fmt.Fprintln(s.out, s.g.Connected(u, v))
	case "flush":
		return s.flush()
	case "components":
		if s.remote != nil {
			return fmt.Errorf("components is local-only (the wire protocol serves connectivity queries)")
		}
		s.flush()
		fmt.Fprintln(s.out, s.g.NumComponents())
	case "size":
		u, err := argN(1)
		if err != nil {
			return err
		}
		if s.remote != nil {
			return fmt.Errorf("size is local-only (the wire protocol serves connectivity queries)")
		}
		s.flush()
		fmt.Fprintln(s.out, s.g.ComponentSize(u))
	case "khop":
		u, err := argN(1)
		if err != nil {
			return err
		}
		k, err := argN(2)
		if err != nil {
			return err
		}
		if k < 0 {
			return fmt.Errorf("khop: radius must be non-negative")
		}
		if err := s.flush(); err != nil {
			return err
		}
		var verts []int32
		if s.remote != nil {
			if verts, err = s.remote.KHop(u, uint32(k)); err != nil {
				return err
			}
		} else {
			verts = query.KHop(s.g.Neighbors, int32(s.g.N()), u, uint32(k))
		}
		fmt.Fprintln(s.out, joinVerts(verts))
	case "members":
		u, err := argN(1)
		if err != nil {
			return err
		}
		if err := s.flush(); err != nil {
			return err
		}
		var verts []int32
		if s.remote != nil {
			if verts, err = s.remote.ComponentMembers(u); err != nil {
				return err
			}
		} else {
			// ComponentVertices enumerates in Euler-tour order; the query
			// layer's contract (and the remote path) is ascending.
			verts = s.g.ComponentVertices(u)
			sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
		}
		fmt.Fprintln(s.out, joinVerts(verts))
	case "path":
		u, err := argN(1)
		if err != nil {
			return err
		}
		v, err := argN(2)
		if err != nil {
			return err
		}
		if err := s.flush(); err != nil {
			return err
		}
		var path []int32
		var found bool
		if s.remote != nil {
			if path, found, err = s.remote.TreePath(u, v); err != nil {
				return err
			}
		} else {
			path, found = query.TreePath(s.g.TreeNeighbors, int32(s.g.N()), u, v)
		}
		if !found {
			fmt.Fprintln(s.out, "none")
			return nil
		}
		fmt.Fprintln(s.out, joinVerts(path))
	case "agg":
		if err := s.flush(); err != nil {
			return err
		}
		var count uint64
		var hist []uint64
		if s.remote != nil {
			var err error
			if count, hist, err = s.remote.ComponentAggregate(); err != nil {
				return err
			}
		} else {
			lbl := make([]int32, s.g.N())
			s.g.ComponentLabels(lbl)
			count, hist = query.Aggregate(lbl)
		}
		fmt.Fprintf(s.out, "components=%d hist=%v\n", count, hist)
	case "watch":
		if s.remote == nil {
			return fmt.Errorf("watch is remote-only (events are pushed by a server's epoch pipeline)")
		}
		if s.esub != nil {
			return fmt.Errorf("watch: a subscription is already open")
		}
		if err := s.flush(); err != nil {
			return err
		}
		if len(fields) == 2 && fields[1] == "comps" {
			sub, err := s.remote.SubscribeEvents(true, nil)
			if err != nil {
				return err
			}
			s.esub = sub
			return nil
		}
		u, err := argN(1)
		if err != nil {
			return err
		}
		v, err := argN(2)
		if err != nil {
			return err
		}
		sub, err := s.remote.SubscribeEvents(false, []conn.Edge{{U: u, V: v}})
		if err != nil {
			return err
		}
		s.esub = sub
	case "event":
		if s.remote == nil {
			return fmt.Errorf("event is remote-only (events are pushed by a server's epoch pipeline)")
		}
		if s.esub == nil {
			return fmt.Errorf("event before 'watch'")
		}
		if err := s.flush(); err != nil {
			return err
		}
		ev, ok := <-s.esub.C()
		if !ok {
			if err := s.esub.Err(); err != nil {
				return fmt.Errorf("event: %w", err)
			}
			return fmt.Errorf("event: subscription closed")
		}
		switch ev.Kind {
		case client.EventPairConnected, client.EventPairDisconnected:
			fmt.Fprintf(s.out, "event %s %d %d\n", ev.Kind, ev.U, ev.V)
		case client.EventMerge, client.EventSplit:
			fmt.Fprintf(s.out, "event %s label=%d others=%v\n", ev.Kind, ev.Label, ev.Others)
		default:
			fmt.Fprintf(s.out, "event %s\n", ev.Kind)
		}
	case "stats":
		if err := s.flush(); err != nil {
			return err
		}
		if s.remote != nil {
			st, err := s.remote.Stats()
			if err != nil {
				return err
			}
			fmt.Fprintf(s.out, "epochs=%d ops=%d maxepoch=%d publishes=%d rebuilds=%d\n",
				st.Epochs, st.Ops, st.MaxEpoch, st.SnapshotPublishes, st.SnapshotRebuilds)
			fmt.Fprintf(s.out, "wal: records=%d bytes=%d raw_bytes=%d fsyncs=%d\n",
				st.WALRecords, st.WALBytes, st.WALRawBytes, st.WALFsyncs)
			fmt.Fprintf(s.out, "checkpoints=%d\n", st.Checkpoints)
			fmt.Fprintf(s.out, "repl: subscribers=%d last_shipped=%d max_lag=%d applied=%d\n",
				st.Subscribers, st.LastShippedSeq, st.MaxFollowerLag, st.AppliedSeq)
			fmt.Fprintf(s.out, "events: subscribers=%d delivered=%d dropped=%d\n",
				st.EventSubscribers, st.EventsDelivered, st.EventsDropped)
			// A sharded namespace reports per-engine lines under the
			// aggregate: shards 0..k-1, then the boundary engine.
			for i, sh := range st.Shards {
				label := fmt.Sprintf("shard %d", i)
				if i == len(st.Shards)-1 {
					label = "boundary"
				}
				fmt.Fprintf(s.out, "%s: epochs=%d ops=%d wal: records=%d seq=%d floor=%d applied=%d\n",
					label, sh.Epochs, sh.Ops, sh.WALRecords, sh.WALSeq, sh.WALFloor, sh.AppliedSeq)
			}
			return nil
		}
		st := s.g.Stats()
		fmt.Fprintf(s.out, "edges=%d inserts=%d deletes=%d replaced=%d pushdowns=%d\n",
			s.g.NumEdges(), st.Inserts, st.Deletes, st.Replaced, st.Pushdowns+st.TreePushes)
		if s.b != nil {
			bs := s.b.Stats()
			fmt.Fprintf(s.out, "wal: records=%d bytes=%d raw_bytes=%d fsyncs=%d floor=%d last=%d\n",
				bs.WALRecords, bs.WALBytes, bs.WALRawBytes, bs.WALFsyncs,
				s.b.WALFloor(), s.b.WALSeq())
			fmt.Fprintf(s.out, "checkpoints=%d\n", bs.Checkpoints)
		}
	case "checkpoint":
		if err := s.flush(); err != nil {
			return err
		}
		if s.remote != nil {
			if _, err := s.remote.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			fmt.Fprintln(s.out, "ok")
			return nil
		}
		if s.b == nil {
			return fmt.Errorf("checkpoint requires -data")
		}
		if _, err := s.b.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		fmt.Fprintln(s.out, "ok")
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// joinVerts renders a vertex list as space-separated ids, "-" when empty, so
// query output stays one line per command for the golden harness.
func joinVerts(vs []int32) string {
	if len(vs) == 0 {
		return "-"
	}
	var sb strings.Builder
	for i, v := range vs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", v)
	}
	return sb.String()
}
