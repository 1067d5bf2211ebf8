// Package chaos is the deterministic fault-injection layer behind the
// whole-topology chaos harness (internal/topo, cmd/connchaos). Production
// code threads named injection points — sites — through its hot seams:
//
//	if f := chaos.Inject(chaos.SiteWALAppendPreFsync); f != nil { ... }
//
// Disarmed (the default, and the only state ordinary binaries ever run in),
// Inject is a single atomic pointer load returning nil, so the hooks cost
// nothing and change nothing. Armed with a seeded schedule — explicitly via
// Arm, or through the CONNCHAOS_SCHED / CONNCHAOS_SEED environment variables
// so child server processes arm themselves without code changes — each site
// consults its schedule rules and returns a *Fault describing the failure to
// simulate.
//
// Determinism: every firing decision is a pure function of (seed, site,
// hit index). A site's k-th execution either always fires or never fires for
// a given seed and schedule, independent of wall-clock time, goroutine
// interleaving, or what other sites did — so a failing run replays with the
// same per-site fault pattern from its seed alone. The fire trace (Trace)
// records firings in observed order for tests that hammer a site from one
// goroutine; across goroutines only the per-site pattern is defined.
//
// Sites are a closed type (Site, sites.go): its only constructor registers
// the site in the Sites table, so Inject cannot be handed an unregistered
// name, and parsing a schedule that references anything else fails loudly.
package chaos

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Environment variables a child process arms itself from on the first
// Inject call. The schedule must parse and every site must be registered —
// a process asked to run chaos cannot silently run clean, so arming
// failures panic.
const (
	EnvSchedule = "CONNCHAOS_SCHED"
	EnvSeed     = "CONNCHAOS_SEED"
)

// Action is the failure mode a fired fault asks the site to simulate. Sites
// honor the actions that make sense for them (a pure error path ignores the
// distinction between Fail and Drop) and treat anything else as Fail.
type Action int

const (
	// ActFail injects an error return.
	ActFail Action = iota
	// ActTorn injects a torn write: partial bytes reach the medium, then
	// the operation fails — the tail a crash mid-write leaves.
	ActTorn
	// ActDrop severs a connection or stream.
	ActDrop
	// ActDelay stalls the site for Fault.Delay.
	ActDelay
)

func (a Action) String() string {
	switch a {
	case ActFail:
		return "fail"
	case ActTorn:
		return "torn"
	case ActDrop:
		return "drop"
	case ActDelay:
		return "delay"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Fault describes one fired injection: which site, which failure mode, and
// for delays, how long. Hit is the site's 1-based execution index that
// fired, which makes error messages replayable references.
type Fault struct {
	Site   string
	Action Action
	Delay  time.Duration
	Hit    uint64
}

// Err returns the error a failing site should surface.
func (f *Fault) Err() error {
	return fmt.Errorf("chaos: injected %s at site %s (hit %d)", f.Action, f.Site, f.Hit)
}

// Sleep blocks for the fault's delay (no-op for non-delay actions).
func (f *Fault) Sleep() {
	if f.Action == ActDelay && f.Delay > 0 {
		time.Sleep(f.Delay)
	}
}

// rule is one parsed schedule entry, plus its runtime counters.
type rule struct {
	site   string
	action Action
	delay  time.Duration

	// Firing modifiers. Zero values mean "no constraint": fire on every
	// hit. p in (0,1) gates each hit on the seeded hash; after skips the
	// first hits; nth fires on exactly that hit; times caps total firings.
	p     float64
	after uint64
	nth   uint64
	times uint64

	hits  atomic.Uint64
	fired atomic.Uint64
}

// fire decides deterministically whether this rule fires on the given hit.
func (r *rule) fire(seed int64, hit uint64) bool {
	if hit <= r.after {
		return false
	}
	if r.nth != 0 && hit != r.nth {
		return false
	}
	if r.p > 0 && chance(seed, r.site, hit) >= r.p {
		return false
	}
	if r.times != 0 {
		for {
			f := r.fired.Load()
			if f >= r.times {
				return false
			}
			if r.fired.CompareAndSwap(f, f+1) {
				return true
			}
		}
	}
	r.fired.Add(1)
	return true
}

// chance maps (seed, site, hit) to a uniform [0,1) value — splitmix64 over
// an FNV-1a fold of the site name. Pure, so a site's fire pattern is fixed
// by the seed alone.
func chance(seed int64, site string, hit uint64) float64 {
	h := uint64(seed) ^ 0xcbf29ce484222325
	for i := 0; i < len(site); i++ {
		h = (h ^ uint64(site[i])) * 0x100000001b3
	}
	h += hit * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(uint64(1)<<53)
}

// Plan is an armed schedule: the parsed rules keyed by site, the seed the
// firing decisions derive from, and the fire trace. Immutable after
// construction except for the rule counters and the trace.
type Plan struct {
	seed  int64
	rules map[string][]*rule

	mu    sync.Mutex
	trace []string
}

// maxTrace bounds the fire log so a high-probability schedule cannot grow
// memory without bound; firings past the cap still happen, just unrecorded.
const maxTrace = 1 << 14

func (p *Plan) inject(site string) *Fault {
	rs, ok := p.rules[site]
	if !ok {
		return nil
	}
	for _, r := range rs {
		hit := r.hits.Add(1)
		if !r.fire(p.seed, hit) {
			continue
		}
		p.mu.Lock()
		if len(p.trace) < maxTrace {
			p.trace = append(p.trace, fmt.Sprintf("%s#%d:%s", site, hit, r.action))
		}
		p.mu.Unlock()
		return &Fault{Site: site, Action: r.action, Delay: r.delay, Hit: hit}
	}
	return nil
}

// active is the armed plan; nil means every Inject is a no-op.
var active atomic.Pointer[Plan]

var envOnce sync.Once

// Inject is the fault point: site is one of the registered Site variables,
// and the return is nil unless an armed schedule fires a fault for this
// execution of it. The disarmed fast path is one atomic load. The first
// call checks the CONNCHAOS_SCHED environment once, so child processes
// spawned with the variables set arm automatically.
func Inject(site Site) *Fault {
	envOnce.Do(armFromEnv)
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.inject(site.name)
}

// Arm parses schedule (see ParseSchedule for the grammar) and installs it:
// subsequent Inject calls consult it. Arming replaces any previous plan and
// resets all counters.
func Arm(seed int64, schedule string) error {
	p, err := NewPlan(seed, schedule)
	if err != nil {
		return err
	}
	active.Store(p)
	return nil
}

// Disarm removes the armed plan; Inject returns to the no-op fast path.
func Disarm() { active.Store(nil) }

// Armed reports whether a plan is installed.
func Armed() bool { return active.Load() != nil }

// Trace returns a copy of the armed plan's fire log: one "site#hit:action"
// entry per recorded firing, in observed order. Empty when disarmed.
func Trace() []string {
	p := active.Load()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.trace))
	copy(out, p.trace)
	return out
}

// armFromEnv installs the schedule named by the environment, if any. A
// process explicitly asked to run under chaos must not silently run clean,
// so a malformed schedule is fatal.
func armFromEnv() {
	sched := os.Getenv(EnvSchedule)
	if sched == "" {
		return
	}
	var seed int64 = 1
	if s := os.Getenv(EnvSeed); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			panic(fmt.Sprintf("chaos: bad %s=%q: %v", EnvSeed, s, err))
		}
		seed = v
	}
	if err := Arm(seed, sched); err != nil {
		panic(fmt.Sprintf("chaos: bad %s: %v", EnvSchedule, err))
	}
}
