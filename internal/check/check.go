// Package check is the simulation invariant checker: a passive subsystem
// that subscribes to the same observer hooks as tracing and asserts
// cross-layer invariants at event granularity — bus hold legality,
// GC-copy routing, page conservation, RAS accounting balance, and
// resource-leak detection at drain.
//
// Like the tracing recorder, a nil *Checker is valid everywhere and every
// method on it is a no-op, so a build with checking disabled executes the
// exact event sequence of a build without the checker compiled in.
package check

import (
	"fmt"
	"sort"

	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config selects invariant checking; it has no tunables.
type Config struct{}

// DefaultMaxViolations caps how many violations a checker records in
// detail; further ones are counted but not stored.
const DefaultMaxViolations = 64

// Violation is one invariant breach, timestamped at detection.
type Violation struct {
	Time   sim.Time
	Rule   string
	Detail string
}

// String renders the violation for error messages.
func (v Violation) String() string {
	return fmt.Sprintf("[%v] %s: %s", v.Time, v.Rule, v.Detail)
}

// resourceState is the per-resource hold history the legality rules need.
type resourceState struct {
	kind        string
	lastRelease sim.Time
	haveHold    bool
}

// idleProbe checks one resource for drain-time leaks.
type idleProbe struct {
	name  string
	probe func() (busy bool, queued int)
}

// drainCheck is a named end-of-run assertion.
type drainCheck struct {
	name string
	fn   func() error
}

// Checker subscribes to observer hooks and records invariant violations.
// It is passive: it never schedules events or mutates model state, so an
// attached checker changes no simulated behavior, only adds bookkeeping.
type Checker struct {
	eng *sim.Engine
	max int // recorded-violation cap, DefaultMaxViolations

	kinds     map[string]string // resource name -> trace.Kind* string
	res       map[*sim.Resource]*resourceState
	watermark sim.Time // latest observer timestamp seen (monotonic clock)

	// page conservation: the FTL's authoritative lpn -> token record and
	// the probe that reads the mapped flash content back at drain.
	expected     map[int64]flash.Token
	contentProbe func(lpn int64) (flash.Token, bool)

	// GC copy routing (channel fabrics): colsPerV > 0 enables the
	// direct-copy column invariant; a fabric with no v-channels reports
	// 0 and relays every copy.
	colsPerV                    int
	directCopies, relayedCopies int64

	// multi-queue front-end ledger (WatchTenants): per-tenant
	// queued/granted/done counts and the fairness bound.
	tenants     []tenantState
	tenantBound int

	// scheduling-layer ledger (WatchSched): path reservations and the
	// inflight balance.
	sched *schedState

	// map-unit ledger (WatchMap): cache-coherence mirror and the
	// translation-page conservation record.
	mapst *mapState

	idleProbes  []idleProbe
	drainChecks []drainCheck

	violations []Violation // runtime violations, appended as they occur
	drainViols []Violation // drain violations, recomputed per Verify
	dropped    int64       // violations past the cap
	checks     int64       // assertions evaluated
}

// New builds a checker bound to the engine.
func New(eng *sim.Engine) *Checker {
	return &Checker{
		eng:      eng,
		max:      DefaultMaxViolations,
		kinds:    make(map[string]string),
		res:      make(map[*sim.Resource]*resourceState),
		expected: make(map[int64]flash.Token),
	}
}

// Enabled reports whether the checker is attached; safe on nil.
func (c *Checker) Enabled() bool { return c != nil }

// Checks returns the number of assertions evaluated; safe on nil.
func (c *Checker) Checks() int64 {
	if c == nil {
		return 0
	}
	return c.checks
}

// violate records one breach, respecting the cap.
func (c *Checker) violate(rule, format string, args ...any) {
	if len(c.violations) >= c.max {
		c.dropped++
		return
	}
	c.violations = append(c.violations, Violation{
		Time:   c.eng.Now(),
		Rule:   rule,
		Detail: fmt.Sprintf(format, args...),
	})
}

// RegisterResource declares a resource's kind (a trace.Kind* string) so
// hold labels can be validated against the kind's legal set. Unregistered
// resources are tracked with trace.KindOther and skip label checks.
func (c *Checker) RegisterResource(name, kind string) {
	if c == nil {
		return
	}
	c.kinds[name] = kind
}

// legalLabels maps a resource kind to the hold labels the architecture
// models are allowed to place on it. The v-channel set is the heart of
// the GC-safety invariant: relayed GC transfers (gc-read-xfer), read
// commands, and erase commands are controller-driven h-channel work and
// must never appear on a v-channel.
var legalLabels = map[string]map[string]bool{
	trace.KindHChannel: {
		"read-cmd": true, "read-xfer": true, "read-xfer-half": true,
		"program-xfer": true, "program-xfer-half": true,
		"erase-cmd": true, "gc-read-cmd": true, "gc-read-xfer": true,
	},
	trace.KindVChannel: {
		"read-xfer": true, "read-xfer-half": true,
		"program-xfer": true, "program-xfer-half": true,
		"gc-read-cmd": true, "gc-vxfer": true,
	},
	trace.KindChip: {"read": true, "program": true, "erase": true},
	trace.KindSoc:  {"xfer": true},
	trace.KindHost: {"read-return": true, "write-payload": true},
}

func (c *Checker) stateOf(r *sim.Resource) *resourceState {
	st, ok := c.res[r]
	if !ok {
		kind, known := c.kinds[r.Name()]
		if !known {
			kind = trace.KindOther
		}
		st = &resourceState{kind: kind}
		c.res[r] = st
	}
	return st
}

// ResourceHold implements sim.ResourceObserver: every completed hold is
// checked for timestamp sanity, non-overlap with the previous hold on the
// same resource, and label legality for the resource's kind.
func (c *Checker) ResourceHold(r *sim.Resource, label string, queuedAt, grantedAt, releasedAt sim.Time) {
	if c == nil {
		return
	}
	c.checks++
	st := c.stateOf(r)
	if !(queuedAt <= grantedAt && grantedAt <= releasedAt) {
		c.violate("hold-order", "%s: queued=%v granted=%v released=%v out of order (label %q)",
			r.Name(), queuedAt, grantedAt, releasedAt, label)
	}
	if st.haveHold && grantedAt < st.lastRelease {
		c.violate("hold-overlap", "%s: hold %q granted at %v overlaps previous hold released at %v",
			r.Name(), label, grantedAt, st.lastRelease)
	}
	if releasedAt < c.watermark {
		c.violate("clock-monotonic", "%s: hold released at %v after observing %v",
			r.Name(), releasedAt, c.watermark)
	} else {
		c.watermark = releasedAt
	}
	if legal, ok := legalLabels[st.kind]; ok && !legal[label] {
		c.violate("label-legality", "%s (%s): illegal hold label %q", r.Name(), st.kind, label)
	}
	st.lastRelease = releasedAt
	st.haveHold = true
}

// ResourceQueue implements sim.ResourceObserver: queue depths must be
// non-negative and observations time-ordered.
func (c *Checker) ResourceQueue(r *sim.Resource, depth int, at sim.Time) {
	if c == nil {
		return
	}
	c.checks++
	if depth < 0 {
		c.violate("queue-depth", "%s: negative queue depth %d", r.Name(), depth)
	}
	if at < c.watermark {
		c.violate("clock-monotonic", "%s: queue event at %v after observing %v",
			r.Name(), at, c.watermark)
	} else {
		c.watermark = at
	}
}

// PageWritten implements ftl.CheckSink: it records the authoritative
// content for an LPN. Verify replays the record against the flash arrays.
func (c *Checker) PageWritten(lpn int64, tok flash.Token) {
	if c == nil {
		return
	}
	c.checks++
	c.expected[lpn] = tok
}

// SetContentProbe installs the lookup Verify uses to read an LPN's mapped
// flash content back: it returns the stored token and whether the LPN is
// mapped to a programmed page.
func (c *Checker) SetContentProbe(lookup func(lpn int64) (flash.Token, bool)) {
	if c == nil {
		return
	}
	c.contentProbe = lookup
}

// WatchCopies enables the GC routing invariant for a channel fabric
// whose v-channels each serve colsPerV way-columns (0: no v-channels).
func (c *Checker) WatchCopies(colsPerV int) {
	if c == nil {
		return
	}
	c.colsPerV = colsPerV
}

// CopyRouted implements controller.CopyChecker: a copy routed direct must
// stay within one v-channel column — the structural property Spatial GC
// relies on to keep collection off the h-channels.
func (c *Checker) CopyRouted(src, dst controller.ChipID, direct bool) {
	if c == nil {
		return
	}
	c.checks++
	if direct {
		c.directCopies++
		if c.colsPerV > 0 && src.Way/c.colsPerV != dst.Way/c.colsPerV {
			c.violate("copy-column", "direct copy %v -> %v crosses v-channel columns (colsPerV=%d)",
				src, dst, c.colsPerV)
		}
	} else {
		c.relayedCopies++
	}
}

// CopyCounts returns (direct, relayed) copies observed, for cross-checks
// against fabric counters.
func (c *Checker) CopyCounts() (direct, relayed int64) {
	if c == nil {
		return 0, 0
	}
	return c.directCopies, c.relayedCopies
}

// WatchIdle registers a drain-time leak probe: at Verify the resource
// must be idle with an empty queue.
func (c *Checker) WatchIdle(name string, probe func() (busy bool, queued int)) {
	if c == nil {
		return
	}
	c.idleProbes = append(c.idleProbes, idleProbe{name: name, probe: probe})
}

// AddDrainCheck registers a named end-of-run assertion evaluated by
// Verify; a non-nil error becomes a violation.
func (c *Checker) AddDrainCheck(name string, fn func() error) {
	if c == nil {
		return
	}
	c.drainChecks = append(c.drainChecks, drainCheck{name: name, fn: fn})
}

// Verify evaluates every drain-time invariant and returns an error
// summarizing all recorded violations (runtime and drain), or nil when
// the run is clean. It is idempotent: drain checks are recomputed on each
// call and runtime violations are never duplicated. Safe on nil.
func (c *Checker) Verify() error {
	if c == nil {
		return nil
	}
	c.drainViols = c.drainViols[:0]
	drainViolate := func(rule, format string, args ...any) {
		c.drainViols = append(c.drainViols, Violation{
			Time:   c.eng.Now(),
			Rule:   rule,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	for _, p := range c.idleProbes {
		c.checks++
		busy, queued := p.probe()
		if busy || queued > 0 {
			drainViolate("drain-leak", "%s: busy=%v queued=%d after drain", p.name, busy, queued)
		}
	}
	for _, d := range c.drainChecks {
		c.checks++
		if err := d.fn(); err != nil {
			drainViolate("drain-check", "%s: %v", d.name, err)
		}
	}
	if c.contentProbe != nil && len(c.expected) > 0 {
		lpns := make([]int64, 0, len(c.expected))
		for lpn := range c.expected {
			lpns = append(lpns, lpn)
		}
		sort.Slice(lpns, func(i, j int) bool { return lpns[i] < lpns[j] })
		bad := 0
		for _, lpn := range lpns {
			c.checks++
			got, ok := c.contentProbe(lpn)
			want := c.expected[lpn]
			if !ok {
				bad++
				if bad <= 8 {
					drainViolate("page-conservation", "LPN %d: written but not mapped to a programmed page", lpn)
				}
				continue
			}
			if got != want {
				bad++
				if bad <= 8 {
					drainViolate("page-conservation", "LPN %d: content %#x, want %#x", lpn, got, want)
				}
			}
		}
		if bad > 8 {
			drainViolate("page-conservation", "%d further LPNs lost or corrupted", bad-8)
		}
	}
	all := c.Violations()
	if len(all) == 0 {
		return nil
	}
	msg := fmt.Sprintf("check: %d invariant violation(s)", len(all))
	if c.dropped > 0 {
		msg += fmt.Sprintf(" (+%d past the cap)", c.dropped)
	}
	for i, v := range all {
		if i >= 16 {
			msg += fmt.Sprintf("\n  ... and %d more", len(all)-16)
			break
		}
		msg += "\n  " + v.String()
	}
	return fmt.Errorf("%s", msg)
}

// Violations returns every recorded violation: runtime ones in detection
// order followed by the latest Verify's drain findings. Safe on nil.
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	out := make([]Violation, 0, len(c.violations)+len(c.drainViols))
	out = append(out, c.violations...)
	out = append(out, c.drainViols...)
	return out
}

// RASBalance returns a drain check asserting the injected-fault ledger:
// every fault the injector fired is accounted for by exactly one recovery
// counter. The identities follow the recovery paths — a faulted read's
// true draws equal its retries (recovered) or retries+1 with one strong
// ECC relay (exhausted); every program/erase fail and grant drop is
// counted where it is handled; every dropped grant ends in a retry or a
// relay failover; every on-die ECC hit becomes a fallback.
func RASBalance(inj *fault.Injector) func() error {
	return func() error {
		if inj == nil {
			return nil
		}
		r := inj.RAS()
		if r == nil {
			return nil
		}
		type identity struct {
			name      string
			got, want int64
		}
		ids := []identity{
			{"read ECC draws == retries + relays", inj.Injected(fault.ReadECC), r.ReadRetries + r.ReadRelays},
			{"program-fail draws == program fails", inj.Injected(fault.ProgramFail), r.ProgramFails},
			{"erase-fail draws == erase fails", inj.Injected(fault.EraseFail), r.EraseFails},
			{"grant-drop draws == grant drops", inj.Injected(fault.GrantDrop), r.GrantDrops},
			{"grant drops == retries + failovers", r.GrantDrops, r.GrantRetries + r.CopyFailovers},
			{"on-die ECC draws == fallbacks", inj.Injected(fault.OnDieECC), r.OnDieECCFallbacks},
		}
		for _, id := range ids {
			if id.got != id.want {
				return fmt.Errorf("RAS imbalance: %s (%d != %d)", id.name, id.got, id.want)
			}
		}
		return nil
	}
}
