package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSchedule parses the schedule grammar into rules. A schedule is a
// semicolon-separated list of rules:
//
//	rule    := <site> ':' <action> ['=' <arg>] ['@' mod (',' mod)*]
//	action  := fail | torn | drop | delay       (delay takes arg, a duration)
//	mod     := p=<float>      fire each hit with this seeded probability
//	         | after=<n>      skip the site's first n hits
//	         | nth=<n>        fire on exactly the n-th hit (1-based)
//	         | times=<n>      fire at most n times total
//
// Examples:
//
//	wal.append.pre-fsync:torn@nth=400
//	server.conn.read:drop@p=0.01
//	repl.stream.send:delay=50ms@p=0.005,after=100
//	wal.open.torn-tail:torn@times=1
//
// Every site must be registered in Sites; unknown sites, actions or
// modifiers are errors — a schedule must never silently reference a fault
// point that does not exist.
func ParseSchedule(schedule string) ([]*rule, error) {
	var rules []*rule
	for _, part := range strings.Split(schedule, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("chaos: schedule %q holds no rules", schedule)
	}
	return rules, nil
}

func parseRule(s string) (*rule, error) {
	head, mods, hasMods := strings.Cut(s, "@")
	site, act, ok := strings.Cut(head, ":")
	if !ok {
		return nil, fmt.Errorf("chaos: rule %q: want <site>:<action>", s)
	}
	site = strings.TrimSpace(site)
	if _, registered := Sites[site]; !registered {
		return nil, fmt.Errorf("chaos: rule %q: unknown site %q", s, site)
	}
	r := &rule{site: site}
	actName, arg, hasArg := strings.Cut(strings.TrimSpace(act), "=")
	switch actName {
	case "fail":
		r.action = ActFail
	case "torn":
		r.action = ActTorn
	case "drop":
		r.action = ActDrop
	case "delay":
		r.action = ActDelay
		if !hasArg {
			return nil, fmt.Errorf("chaos: rule %q: delay needs a duration argument", s)
		}
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("chaos: rule %q: bad delay %q", s, arg)
		}
		r.delay = d
		hasArg = false
	default:
		return nil, fmt.Errorf("chaos: rule %q: unknown action %q", s, actName)
	}
	if hasArg {
		return nil, fmt.Errorf("chaos: rule %q: action %s takes no argument", s, actName)
	}
	if !hasMods {
		return r, nil
	}
	for _, mod := range strings.Split(mods, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(mod), "=")
		if !ok {
			return nil, fmt.Errorf("chaos: rule %q: modifier %q: want key=value", s, mod)
		}
		switch key {
		case "p":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p <= 0 || p > 1 {
				return nil, fmt.Errorf("chaos: rule %q: probability %q outside (0,1]", s, val)
			}
			r.p = p
		case "after", "nth", "times":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("chaos: rule %q: modifier %s=%q: want a positive integer", s, key, val)
			}
			switch key {
			case "after":
				r.after = n
			case "nth":
				r.nth = n
			case "times":
				r.times = n
			}
		default:
			return nil, fmt.Errorf("chaos: rule %q: unknown modifier %q", s, key)
		}
	}
	return r, nil
}

// NewPlan parses schedule and binds it to seed without installing it —
// tests build plans directly to compare fire patterns.
func NewPlan(seed int64, schedule string) (*Plan, error) {
	rules, err := ParseSchedule(schedule)
	if err != nil {
		return nil, err
	}
	bySite := make(map[string][]*rule)
	for _, r := range rules {
		bySite[r.site] = append(bySite[r.site], r)
	}
	return &Plan{seed: seed, rules: bySite}, nil
}

// Inject is the Plan-scoped fault point, identical to the package-level
// Inject but against this plan regardless of what is armed globally.
func (p *Plan) Inject(site Site) *Fault { return p.inject(site.name) }

// Trace returns a copy of this plan's fire log.
func (p *Plan) Trace() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.trace))
	copy(out, p.trace)
	return out
}
