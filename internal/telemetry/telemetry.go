// Package telemetry is a passive time-series engine for the simulator.
//
// A Collector samples counters, gauges, and latency histograms over
// *simulated* time in fixed windows: host throughput and tail latency
// per window, per-tenant queue depth, GC activity, Omnibus grant wait,
// RAS/fault event counts, and array rebuild progress. It also owns the
// per-request latency Attribution objects (attribution.go) that
// decompose every request's end-to-end latency into named phases.
//
// The collector follows the internal/trace contract exactly:
//
//   - A nil *Collector is valid and every method is a no-op, so model
//     code calls hooks unconditionally and a run without telemetry
//     pays only nil checks.
//   - The collector never schedules events and never consults the
//     engine; callers pass the current simulated time into every hook.
//     An instrumented run therefore executes a bit-identical event
//     sequence (pinned by TestTelemetryOffIsBitIdentical).
//   - All accumulation is commutative or fed in deterministic order,
//     so exported series are byte-identical at any -parallel count.
package telemetry

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// windowHistDensity is the bucket resolution of the small per-window
// latency histograms (coarser than the run-level 90/decade histograms;
// ~8% bucket error is fine for sparklines).
const windowHistDensity = 30

// Config selects telemetry collection; it has no tunables. Series are
// sampled in sim.SeriesWindow windows.
type Config struct{}

// tenantSeries integrates one tenant's submission-queue depth over
// time: depth × duration per window, with the current depth held open
// since at.
type tenantSeries struct {
	name  string
	depth *sim.Windowed
	cur   int
	at    sim.Time
}

// Collector accumulates all telemetry channels for one device run.
// It is not safe for concurrent use; like the trace recorder it lives
// inside a single engine's event callbacks (or is fed post-join from
// a single goroutine, as the array tier does).
type Collector struct {
	// Host completion channels, by completion window.
	completed *sim.Windowed
	bytes     *sim.Windowed
	lat       []*stats.Histogram

	// Per-kind, per-phase attribution histograms for the whole run.
	phaseHist   [2][NumPhases]*stats.Histogram
	phaseTotal  [2][NumPhases]sim.Time
	requests    int64
	attViolated int64

	// GC activity: busy time integrated per window plus copy counts.
	gcBusy    *sim.Windowed
	gcCopies  *sim.Windowed
	gcActive  bool
	gcSince   sim.Time
	gcSeen    bool
	lastEvent sim.Time // high-water mark of any hook, bounds open intervals

	// Omnibus grant wait: waited time integrated over the wait
	// interval, plus grant counts at resolution time.
	grantWait  *sim.Windowed
	grantCount *sim.Windowed
	grantSeen  bool

	// Counted instants (RAS/fault events) per window, keyed by class.
	// Map order never leaks: Summary sorts the keys.
	events map[string]*sim.Windowed

	// Per-tenant submission-queue depth.
	tenants []tenantSeries

	// Array rebuild progress: pages rebuilt per window.
	rebuilt     *sim.Windowed
	rebuildSeen bool

	// FMMU map-cache activity: lookup hits and misses per window. mapSeen
	// gates both the series and the PhaseMap attribution rows so flat-mode
	// summaries stay byte-identical to builds without the map unit.
	mapHits   *sim.Windowed
	mapMisses *sim.Windowed
	mapSeen   bool

	// Named instants (e.g. rebuild-detect) surfaced in the summary.
	marks []Mark
}

// New returns an empty collector.
func New() *Collector {
	w := sim.SeriesWindow
	c := &Collector{
		completed:  sim.NewWindowed(w),
		bytes:      sim.NewWindowed(w),
		gcBusy:     sim.NewWindowed(w),
		gcCopies:   sim.NewWindowed(w),
		grantWait:  sim.NewWindowed(w),
		grantCount: sim.NewWindowed(w),
		events:     make(map[string]*sim.Windowed),
		rebuilt:    sim.NewWindowed(w),
		mapHits:    sim.NewWindowed(w),
		mapMisses:  sim.NewWindowed(w),
	}
	for k := 0; k < 2; k++ {
		for p := Phase(0); p < NumPhases; p++ {
			c.phaseHist[k][p] = stats.NewHistogram(90)
		}
	}
	return c
}

// Enabled reports whether the collector is active. Nil-safe.
func (c *Collector) Enabled() bool { return c != nil }

// slot maps a timestamp to its window index.
func (c *Collector) slot(at sim.Time) int { return int(at / sim.SeriesWindow) }

// touch records the high-water mark so open intervals (an unfinished
// GC round, a tenant queue that never drains) can be closed at export.
func (c *Collector) touch(at sim.Time) {
	if at > c.lastEvent {
		c.lastEvent = at
	}
}

// RecordCompletion adds one finished request to the windowed host
// series. It is order-independent (pure slot-indexed adds), so the
// array tier can feed it from joined per-device results after the
// fact. complete must not precede arrival.
func (c *Collector) RecordCompletion(kind stats.IOKind, arrival, complete sim.Time, bytes int64) {
	if c == nil {
		return
	}
	c.touch(complete)
	c.completed.AddPoint(complete, 1)
	c.bytes.AddPoint(complete, bytes)
	w := c.slot(complete)
	for len(c.lat) <= w {
		c.lat = append(c.lat, nil)
	}
	if c.lat[w] == nil {
		c.lat[w] = stats.NewHistogram(windowHistDensity)
	}
	c.lat[w].Add(complete - arrival)
}

// GCStarted marks the beginning of a GC round.
func (c *Collector) GCStarted(at sim.Time) {
	if c == nil {
		return
	}
	c.touch(at)
	c.gcActive, c.gcSince, c.gcSeen = true, at, true
}

// GCFinished marks the end of a GC round, crediting the busy interval.
func (c *Collector) GCFinished(at sim.Time) {
	if c == nil || !c.gcActive {
		return
	}
	c.touch(at)
	c.gcBusy.AddBusy(c.gcSince, at)
	c.gcActive = false
}

// GCCopied counts one valid-page copy during collection.
func (c *Collector) GCCopied(at sim.Time) {
	if c == nil {
		return
	}
	c.touch(at)
	c.gcCopies.AddPoint(at, 1)
	c.gcSeen = true
}

// GrantWait records one resolved Omnibus grant arbitration: the wait
// interval [from, to) is integrated across windows and the grant is
// counted in the window where it resolved. Zero-wait grants still
// count.
func (c *Collector) GrantWait(from, to sim.Time) {
	if c == nil {
		return
	}
	c.touch(to)
	c.grantWait.AddBusy(from, to)
	c.grantCount.AddPoint(to, 1)
	c.grantSeen = true
}

// Event counts one instant of the named class (RAS/fault events:
// "program-fail", "grant-drop", "write-stall", ...).
func (c *Collector) Event(class string, at sim.Time) {
	if c == nil {
		return
	}
	c.touch(at)
	s := c.events[class]
	if s == nil {
		s = sim.NewWindowed(sim.SeriesWindow)
		c.events[class] = s
	}
	s.AddPoint(at, 1)
}

// RegisterTenants declares the tenant names, in display order, before
// any TenantDepth calls.
func (c *Collector) RegisterTenants(names []string) {
	if c == nil {
		return
	}
	for _, n := range names {
		c.tenants = append(c.tenants, tenantSeries{name: n, depth: sim.NewWindowed(sim.SeriesWindow)})
	}
}

// TenantDepth records a change of one tenant's submission-queue depth.
// Calls must be time-ordered (they come from inside the simulation).
func (c *Collector) TenantDepth(name string, depth int, at sim.Time) {
	if c == nil {
		return
	}
	c.touch(at)
	for i := range c.tenants {
		t := &c.tenants[i]
		if t.name != name {
			continue
		}
		if t.cur > 0 {
			t.depth.AddWeighted(t.at, at, int64(t.cur))
		}
		t.cur, t.at = depth, at
		return
	}
}

// EnableMapPhase declares that a map unit is attached to this run, so
// summaries emit the map series and PhaseMap rows even if a window
// records no activity. Wired once at device construction; never called
// in flat mode.
func (c *Collector) EnableMapPhase() {
	if c == nil {
		return
	}
	c.mapSeen = true
}

// MapHit counts one map-cache lookup hit.
func (c *Collector) MapHit(at sim.Time) {
	if c == nil {
		return
	}
	c.touch(at)
	c.mapHits.AddPoint(at, 1)
	c.mapSeen = true
}

// MapMiss counts one map-cache lookup miss (including coalesced joins
// onto an already in-flight fetch).
func (c *Collector) MapMiss(at sim.Time) {
	if c == nil {
		return
	}
	c.touch(at)
	c.mapMisses.AddPoint(at, 1)
	c.mapSeen = true
}

// RebuildPage counts one array stripe page rebuilt onto a spare.
func (c *Collector) RebuildPage(at sim.Time) {
	if c == nil {
		return
	}
	c.touch(at)
	c.rebuilt.AddPoint(at, 1)
	c.rebuildSeen = true
}

// AddMark records a named instant surfaced verbatim in the summary
// (rebuild detection, rebuild completion, ...).
func (c *Collector) AddMark(name string, at sim.Time) {
	if c == nil {
		return
	}
	c.touch(at)
	c.marks = append(c.marks, Mark{Name: name, AtUs: at.Microseconds()})
}

// Requests returns the number of attributed requests finished so far.
func (c *Collector) Requests() int64 {
	if c == nil {
		return 0
	}
	return c.requests
}

// AttributionViolations returns how many finished requests had phase
// durations that did not sum exactly to their end-to-end latency.
// The invariant test asserts this stays zero on real runs.
func (c *Collector) AttributionViolations() int64 {
	if c == nil {
		return 0
	}
	return c.attViolated
}
