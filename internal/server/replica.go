package server

import (
	"fmt"
	"sync"
	"time"

	"repro/client"
	"repro/internal/backoff"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/repl"
)

// replicaManager owns a replica server's follower loops.
//
// Replica mode: a Server started with Options.ReplicaOf follows a primary
// connserver instead of owning its own write path. At startup the manager
// asks the primary for its namespace list and starts one follower loop per
// durable namespace; each loop subscribes to the primary's epoch stream and
// applies it through a local read-only engine, so the replica serves the
// committed read tier (its own published labelling) and query-only batches
// with the machinery completely unchanged. Mutating requests are rejected with
// StatusReadOnly carrying the primary's address — a redirect the client
// package surfaces as a typed error. Followers reconnect with exponential
// backoff and resume from their last applied seq; if the primary's WAL
// floor moved past that point, the stream re-runs catch-up (snapshot +
// tail) automatically, and while the primary is unreachable the replica
// keeps serving its last applied state — bounded-stale reads survive a
// primary outage.
type replicaManager struct {
	s       *Server
	primary string
	stop    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup

	mu        sync.Mutex
	followers map[string]*followerHandle
}

// followerHandle is one namespace's follower loop, individually stoppable
// so a namespace dropped on the primary can be retired without touching
// the others.
type followerHandle struct {
	stop chan struct{}
	once sync.Once
	done chan struct{}
}

func (f *followerHandle) halt() { f.once.Do(func() { close(f.stop) }) }

func (s *Server) startReplication() {
	m := &replicaManager{
		s: s, primary: s.opts.ReplicaOf,
		stop:      make(chan struct{}),
		followers: make(map[string]*followerHandle),
	}
	s.replMgr = m
	m.wg.Add(1)
	go m.run()
}

// stopAll terminates discovery and every follower loop and waits them out —
// called by Shutdown before any backend is closed, so no apply is mid-flight
// when the namespaces quiesce.
func (m *replicaManager) stopAll() {
	m.once.Do(func() { close(m.stop) })
	m.mu.Lock()
	for _, f := range m.followers {
		f.halt()
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// run discovers the primary's durable namespaces and starts one follower
// per namespace — then keeps re-listing (exponential backoff while the
// primary is unreachable, a steady couple of seconds once it answers) so a
// namespace created on the primary after the replica came up starts
// replicating without a replica restart. startNamespace is idempotent, so
// re-listing known namespaces is a no-op; the follower loops themselves
// handle primary restarts.
func (m *replicaManager) run() {
	defer m.wg.Done()
	const relistEvery = 2 * time.Second
	bo := backoff.New(100*time.Millisecond, 3*time.Second)
	known := 0
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		wait := relistEvery
		infos, err := m.listPrimary()
		if err == nil {
			bo.Reset()
			want := make(map[string]bool, len(infos))
			for _, info := range infos {
				if info.Shards > 0 {
					// A sharded namespace has k+1 independent epoch streams
					// and no composed follower yet: a replica applying them
					// into one flat graph would answer cross-shard queries
					// with boundary edges mixed into shard-local state.
					// Skipped until a sharded follower composes per-shard
					// labels the way the primary's coordinator does.
					continue
				}
				if info.Durable {
					want[info.Name] = true
					m.startNamespace(info.Name, info.N)
				}
			}
			// Namespaces gone from a *successful* list were dropped on the
			// primary: retire them here too, or the replica would serve a
			// deleted namespace's last state forever while its follower
			// redials into StatusNotFound.
			m.mu.Lock()
			var gone []string
			for name := range m.followers {
				if !want[name] {
					gone = append(gone, name)
				}
			}
			m.mu.Unlock()
			for _, name := range gone {
				m.dropNamespace(name)
			}
			if len(want) != known {
				known = len(want)
				m.s.logf("replica: following %d durable namespace(s) from %s", known, m.primary)
			}
		} else {
			wait = bo.Next()
			m.s.logf("replica: cannot list namespaces on primary %s: %v (retrying in %v)",
				m.primary, err, wait)
		}
		select {
		case <-m.stop:
			return
		case <-time.After(wait):
		}
	}
}

func (m *replicaManager) listPrimary() ([]client.NamespaceInfo, error) {
	cl, err := client.Dial(m.primary, client.WithDialTimeout(2*time.Second))
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return cl.List()
}

// startNamespace registers an empty read-only namespace and its follower
// loop. The namespace serves (empty) reads immediately; clients fence on
// the applied seq, so a not-yet-caught-up replica fails their staleness
// check and they fall back to the primary.
func (m *replicaManager) startNamespace(name string, n int) {
	m.s.mu.Lock()
	if _, ok := m.s.namespaces[name]; ok {
		m.s.mu.Unlock()
		return
	}
	e, err := engine.New(core.New(n), engine.Options{})
	if err != nil {
		m.s.mu.Unlock()
		m.s.logf("replica: namespace %q: %v", name, err)
		return
	}
	ns := &namespace{name: name, readonly: true, be: plain{e}}
	m.s.namespaces[name] = ns
	m.s.mu.Unlock()
	f := &followerHandle{stop: make(chan struct{}), done: make(chan struct{})}
	m.mu.Lock()
	m.followers[name] = f
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer close(f.done)
		repl.RunFollower(f.stop, m.primary, name, &nsApplier{ns: ns}, repl.FollowerOptions{
			Logf: m.s.opts.Logf,
		})
	}()
}

// dropNamespace retires one replicated namespace: stop its follower, wait
// out its in-flight apply, then quiesce and remove the local namespace —
// the replica-side mirror of the primary's drop.
func (m *replicaManager) dropNamespace(name string) {
	m.mu.Lock()
	f, ok := m.followers[name]
	if ok {
		delete(m.followers, name)
	}
	m.mu.Unlock()
	if !ok {
		return
	}
	f.halt()
	<-f.done
	m.s.mu.Lock()
	ns, ok := m.s.namespaces[name]
	if ok {
		delete(m.s.namespaces, name)
	}
	m.s.mu.Unlock()
	if !ok {
		return
	}
	ns.mu.Lock()
	ns.closed = true
	ns.mu.Unlock()
	if err := ns.be.Close(); err != nil {
		m.s.logf("replica: closing namespace %q: %v", name, err)
	}
	m.s.logf("replica: namespace %q was dropped on the primary; retired", name)
}

// nsApplier applies a subscription stream into one replica namespace.
type nsApplier struct {
	ns *namespace
}

func (a *nsApplier) AppliedSeq() uint64 { return a.ns.applied.Load() }

// Universe is the vertex bound shipped WAL records decode against; the
// namespace's backend is only ever swapped for one of the same universe
// (ApplySnapshot carries the primary's n).
func (a *nsApplier) Universe() int {
	a.ns.mu.RLock()
	defer a.ns.mu.RUnlock()
	return a.ns.be.N()
}

// ApplyEpoch applies one shipped epoch as one engine epoch: a single mixed
// group (inserts, then deletes — the engine's epoch order matches the WAL's
// replay order), blocking until it commits, so readers observe primary
// epochs atomically and the committed tier republishes per epoch. The apply
// loop is a single goroutine issuing one blocking Apply at a time — it
// waits on futures, never spins, so it cannot starve the dispatcher even on
// one CPU.
func (a *nsApplier) ApplyEpoch(seq uint64, ins, del []graph.Edge) error {
	ops := make([]coalesce.Op, 0, len(ins)+len(del))
	for _, e := range ins {
		ops = append(ops, coalesce.Op{Kind: coalesce.OpInsert, U: e.U, V: e.V})
	}
	for _, e := range del {
		ops = append(ops, coalesce.Op{Kind: coalesce.OpDelete, U: e.U, V: e.V})
	}
	a.ns.mu.RLock()
	be := a.ns.be
	a.ns.mu.RUnlock()
	if _, _, err := be.Apply(ops); err != nil {
		return fmt.Errorf("apply epoch %d: %w", seq, err)
	}
	a.ns.applied.Store(seq)
	return nil
}

// ApplySnapshot rebuilds the namespace from a full-state transfer: a fresh
// engine is prepared off to the side and swapped in under the namespace
// write lock (waiting out in-flight readers), so requests always observe
// either the complete old state or the complete new one.
func (a *nsApplier) ApplySnapshot(seq uint64, n int, edges []graph.Edge) error {
	c := core.New(n)
	c.BatchInsert(edges)
	e, err := engine.New(c, engine.Options{})
	if err != nil {
		return err
	}
	a.ns.mu.Lock()
	old := a.ns.be
	a.ns.be = plain{e}
	a.ns.applied.Store(seq)
	a.ns.mu.Unlock()
	return old.Close()
}
