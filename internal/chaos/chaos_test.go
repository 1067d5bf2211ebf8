package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestDisarmedInjectIsNil: the default state fires nothing — the production
// fast path.
func TestDisarmedInjectIsNil(t *testing.T) {
	Disarm()
	for site := range Sites {
		if f := Inject(site); f != nil {
			t.Fatalf("disarmed Inject(%q) fired %+v", site, f)
		}
	}
	if Armed() {
		t.Fatal("Armed() true while disarmed")
	}
	if tr := Trace(); tr != nil {
		t.Fatalf("disarmed Trace() = %v", tr)
	}
}

// TestDeterministicFirePattern: a site's fire pattern over its first N hits
// is a pure function of (seed, schedule) — two independent plans agree hit
// for hit, and a different seed produces a different pattern.
func TestDeterministicFirePattern(t *testing.T) {
	const sched = SiteServerConnRead + ":drop@p=0.1;" +
		SiteWALAppendPreFsync + ":torn@nth=7;" +
		SiteReplStreamSend + ":delay=1ms@p=0.3,after=5,times=10"
	pattern := func(seed int64) []string {
		p, err := NewPlan(seed, sched)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			p.Inject(SiteServerConnRead)
			p.Inject(SiteWALAppendPreFsync)
			p.Inject(SiteReplStreamSend)
		}
		return p.Trace()
	}
	a, b := pattern(42), pattern(42)
	if len(a) == 0 {
		t.Fatal("schedule never fired in 500 hits")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	if c := pattern(43); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fire patterns (hash ignores seed?)")
	}
}

// TestModifiers: nth fires exactly once at the named hit; times caps total
// firings; after skips the leading hits.
func TestModifiers(t *testing.T) {
	p, err := NewPlan(1, SiteWALOpenTornTail+":torn@nth=3")
	if err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 1; i <= 10; i++ {
		if f := p.Inject(SiteWALOpenTornTail); f != nil {
			fired = append(fired, i)
			if f.Hit != uint64(i) || f.Action != ActTorn {
				t.Fatalf("fault %+v at hit %d", f, i)
			}
		}
	}
	if !reflect.DeepEqual(fired, []int{3}) {
		t.Fatalf("nth=3 fired at hits %v", fired)
	}

	p, err = NewPlan(1, SiteServerAccept+":delay=2ms@after=4,times=2")
	if err != nil {
		t.Fatal(err)
	}
	fired = nil
	for i := 1; i <= 20; i++ {
		if f := p.Inject(SiteServerAccept); f != nil {
			fired = append(fired, i)
			if f.Delay != 2*time.Millisecond {
				t.Fatalf("delay fault carries %v", f.Delay)
			}
		}
	}
	if !reflect.DeepEqual(fired, []int{5, 6}) {
		t.Fatalf("after=4,times=2 fired at hits %v", fired)
	}
}

// TestParseErrors: dead sites, malformed rules and bad modifiers must be
// rejected — a schedule can never silently reference a fault point that
// does not exist.
func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"wal.append.pre-fsync",                 // no action
		"no.such.site:fail",                    // unregistered site
		"wal.append.pre-fsync:explode",         // unknown action
		"wal.append.pre-fsync:fail=x",          // arg on argless action
		"server.conn.read:delay",               // delay without duration
		"server.conn.read:delay=banana",        // unparseable duration
		"server.conn.read:drop@p=1.5",          // probability out of range
		"server.conn.read:drop@nth=0",          // zero counter
		"server.conn.read:drop@huh=1",          // unknown modifier
		"server.conn.read:drop@p",              // modifier without value
		"wal.append.pre-fsync:fail;bogus:fail", // later rule bad
	}
	for _, s := range bad {
		if _, err := ParseSchedule(s); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", s)
		}
	}
	if _, err := ParseSchedule("wal.open.torn-tail:torn@times=1; server.accept:delay=5ms@p=0.5"); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

// TestArmDisarm: arming installs the plan for package-level Inject and the
// trace records firings; disarming restores the no-op path.
func TestArmDisarm(t *testing.T) {
	defer Disarm()
	if err := Arm(7, SiteEngineCheckpointReset+":fail@nth=2"); err != nil {
		t.Fatal(err)
	}
	if Inject(SiteEngineCheckpointReset) != nil {
		t.Fatal("fired on hit 1 with nth=2")
	}
	f := Inject(SiteEngineCheckpointReset)
	if f == nil {
		t.Fatal("did not fire on hit 2")
	}
	if err := f.Err(); err == nil || !strings.Contains(err.Error(), SiteEngineCheckpointReset) {
		t.Fatalf("Err() = %v", err)
	}
	tr := Trace()
	if len(tr) != 1 || !strings.HasPrefix(tr[0], SiteEngineCheckpointReset+"#2") {
		t.Fatalf("Trace() = %v", tr)
	}
	Disarm()
	if Inject(SiteEngineCheckpointReset) != nil {
		t.Fatal("fired after Disarm")
	}
}

// TestSiteConstantsRegistered: every Site* constant is a key in Sites (the
// inverse direction — every key is a constant — is trivially true since the
// table is built from the constants; the connvet chaossite analyzer checks
// call sites use the constants).
func TestSiteConstantsRegistered(t *testing.T) {
	consts := []string{
		SiteWALAppendPreFsync, SiteWALAppendPostFsync, SiteWALOpenTornTail,
		SiteEngineCheckpointReset, SiteReplStreamSend, SiteReplSnapshotSend,
		SiteReplFollowerConn, SiteServerAccept, SiteServerConnRead,
		SiteServerConnWrite,
	}
	if len(consts) != len(Sites) {
		t.Fatalf("%d Site constants, %d Sites entries", len(consts), len(Sites))
	}
	for _, c := range consts {
		if _, ok := Sites[c]; !ok {
			t.Errorf("site constant %q missing from Sites", c)
		}
	}
}
