package telemetry

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// tick is a tenth of the series window: the tests place their events
// on a ten-tick window grid.
const tick = sim.SeriesWindow / 10

// tickUs is one tick in microseconds, the unit of the time-valued
// series and phase totals.
const tickUs = float64(tick / sim.Microsecond)

// TestNilCollectorIsSafe pins the passivity contract's disabled side:
// every hook on a nil collector (and nil attribution) is a no-op.
func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	c.RecordCompletion(stats.Read, 0, 5*tick, 4096)
	c.GCStarted(tick)
	c.GCFinished(2 * tick)
	c.GCCopied(tick)
	c.GrantWait(tick, 2*tick)
	c.Event("program-fail", tick)
	c.RegisterTenants([]string{"a"})
	c.TenantDepth("a", 3, tick)
	c.RebuildPage(tick)
	c.AddMark("m", tick)
	a := c.StartRequest(stats.Write, 0)
	if a != nil {
		t.Fatal("nil collector returned a live attribution")
	}
	a.Mark(PhaseFlash, tick)
	c.FinishRequest(a, tick, 4096)
	if c.Requests() != 0 || c.AttributionViolations() != 0 {
		t.Fatal("nil collector counted requests")
	}
	if c.Summary(tick) != nil {
		t.Fatal("nil collector produced a summary")
	}
	if got := c.Summary(tick).String(); got != "telemetry: disabled" {
		t.Fatalf("nil summary string %q", got)
	}
}

// TestWindowCount checks the window arithmetic, including the
// end-exactly-on-boundary case collapsing into the previous window.
func TestWindowCount(t *testing.T) {
	for _, tc := range []struct {
		end  sim.Time
		want int
	}{
		{0, 1}, {tick, 1}, {10*tick - 1, 1}, {10 * tick, 1}, {10*tick + 1, 2}, {20 * tick, 2}, {35 * tick, 4},
	} {
		c := New()
		s := c.Summary(tc.end)
		if s.Windows != tc.want {
			t.Fatalf("end=%v: %d windows, want %d", tc.end, s.Windows, tc.want)
		}
		for _, sr := range s.Series {
			if len(sr.Values) != tc.want {
				t.Fatalf("end=%v: series %s has %d values, want %d", tc.end, sr.Name, len(sr.Values), tc.want)
			}
		}
	}
	if w := New().Summary(0).WindowUs; w != sim.SeriesWindow.Microseconds() {
		t.Fatalf("window %vus, want %v", w, sim.SeriesWindow)
	}
}

// TestThroughputAndLatencySeries checks per-window completion counts
// and the windowed latency percentiles.
func TestThroughputAndLatencySeries(t *testing.T) {
	c := New()
	c.RecordCompletion(stats.Read, 0, 5*tick, 4096)      // window 0, 5 ticks latency
	c.RecordCompletion(stats.Read, 2*tick, 8*tick, 4096) // window 0, 6 ticks latency
	c.RecordCompletion(stats.Write, 0, 25*tick, 8192)    // window 2, 25 ticks latency
	s := c.Summary(30 * tick)
	if s.Windows != 3 {
		t.Fatalf("%d windows", s.Windows)
	}
	tp := s.SeriesByName("throughput")
	// 2 completions in one window, then 0, then 1: 4, 0, 2 KIOPS.
	if want := []float64{4, 0, 2}; !reflect.DeepEqual(tp.Values, want) {
		t.Fatalf("throughput %v, want %v", tp.Values, want)
	}
	bw := s.SeriesByName("bandwidth")
	if bw.Values[0] <= 0 || bw.Values[1] != 0 || bw.Values[2] <= 0 {
		t.Fatalf("bandwidth %v", bw.Values)
	}
	mean := s.SeriesByName("lat_mean")
	if mean.Values[0] < 5*tickUs || mean.Values[0] > 6.5*tickUs || mean.Values[1] != 0 {
		t.Fatalf("lat_mean %v", mean.Values)
	}
	if p99 := s.SeriesByName("lat_p99"); p99.Values[2] < 24*tickUs || p99.Values[2] > 28*tickUs {
		t.Fatalf("lat_p99 %v", p99.Values)
	}
}

// TestGCBusyIntegration checks that one GC interval spreads its busy
// fraction across the windows it overlaps.
func TestGCBusyIntegration(t *testing.T) {
	c := New()
	c.GCStarted(5 * tick)
	c.GCFinished(25 * tick)
	c.GCCopied(7 * tick)
	c.GCCopied(12 * tick)
	s := c.Summary(30 * tick)
	busy := s.SeriesByName("gc_active")
	if want := []float64{0.5, 1, 0.5}; !reflect.DeepEqual(busy.Values, want) {
		t.Fatalf("gc_active %v, want %v", busy.Values, want)
	}
	if copies := s.SeriesByName("gc_copies"); !reflect.DeepEqual(copies.Values, []float64{1, 1, 0}) {
		t.Fatalf("gc_copies %v", copies.Values)
	}
}

// TestSummaryClosesOpenIntervalsIdempotently: an unfinished GC round
// and a standing tenant queue are closed at the export horizon without
// mutating the collector — two exports agree byte for byte.
func TestSummaryClosesOpenIntervalsIdempotently(t *testing.T) {
	c := New()
	c.GCStarted(5 * tick)
	c.RegisterTenants([]string{"t0"})
	c.TenantDepth("t0", 2, 0)
	first := c.Summary(20 * tick)
	second := c.Summary(20 * tick)
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Fatalf("summary not idempotent:\n%s\n%s", a, b)
	}
	if busy := first.SeriesByName("gc_active"); !reflect.DeepEqual(busy.Values, []float64{0.5, 1}) {
		t.Fatalf("open GC interval not closed: %v", busy.Values)
	}
	if d := first.SeriesByName("qdepth:t0"); !reflect.DeepEqual(d.Values, []float64{2, 2}) {
		t.Fatalf("standing tenant depth not closed: %v", d.Values)
	}
}

// TestTenantDepthIntegration checks depth x duration averaging within
// a window.
func TestTenantDepthIntegration(t *testing.T) {
	c := New()
	c.RegisterTenants([]string{"a", "b"})
	c.TenantDepth("a", 4, 0)        // depth 4 over [0,5) = 2.0 average
	c.TenantDepth("a", 0, 5*tick)   // drained
	c.TenantDepth("b", 1, 0)        // depth 1 across both windows
	c.TenantDepth("ghost", 9, tick) // unregistered: dropped
	s := c.Summary(20 * tick)
	if d := s.SeriesByName("qdepth:a"); !reflect.DeepEqual(d.Values, []float64{2, 0}) {
		t.Fatalf("qdepth:a %v", d.Values)
	}
	if d := s.SeriesByName("qdepth:b"); !reflect.DeepEqual(d.Values, []float64{1, 1}) {
		t.Fatalf("qdepth:b %v", d.Values)
	}
	if s.SeriesByName("qdepth:ghost") != nil {
		t.Fatal("unregistered tenant leaked into the summary")
	}
}

// TestGrantWaitAndEvents checks the grant-wait integration, the event
// class counting, and that event series export in sorted class order.
func TestGrantWaitAndEvents(t *testing.T) {
	c := New()
	c.GrantWait(8*tick, 12*tick) // 2 ticks in window 0, 2 ticks in window 1
	c.GrantWait(12*tick, 12*tick)
	c.Event("write-stall", tick)
	c.Event("grant-drop", 15*tick)
	c.Event("write-stall", 15*tick)
	s := c.Summary(20 * tick)
	if w := s.SeriesByName("grant_wait"); !reflect.DeepEqual(w.Values, []float64{2 * tickUs, 2 * tickUs}) {
		t.Fatalf("grant_wait %v", w.Values)
	}
	if g := s.SeriesByName("grants"); !reflect.DeepEqual(g.Values, []float64{0, 2}) {
		t.Fatalf("grants %v", g.Values)
	}
	if e := s.SeriesByName("event:grant-drop"); !reflect.DeepEqual(e.Values, []float64{0, 1}) {
		t.Fatalf("event:grant-drop %v", e.Values)
	}
	if e := s.SeriesByName("event:write-stall"); !reflect.DeepEqual(e.Values, []float64{1, 1}) {
		t.Fatalf("event:write-stall %v", e.Values)
	}
	var classes []string
	for _, sr := range s.Series {
		if len(sr.Name) > 6 && sr.Name[:6] == "event:" {
			classes = append(classes, sr.Name)
		}
	}
	if !reflect.DeepEqual(classes, []string{"event:grant-drop", "event:write-stall"}) {
		t.Fatalf("event series not sorted: %v", classes)
	}
}

// TestRebuildSeriesAndMarks checks the array-facing channels.
func TestRebuildSeriesAndMarks(t *testing.T) {
	c := New()
	c.RebuildPage(3 * tick)
	c.RebuildPage(3 * tick)
	c.RebuildPage(12 * tick)
	c.AddMark("rebuild-detect", 2*tick)
	c.AddMark("rebuild-complete", 12*tick)
	s := c.Summary(0) // end before lastEvent: clamped up to 12 ticks
	if r := s.SeriesByName("rebuild"); !reflect.DeepEqual(r.Values, []float64{2, 1}) {
		t.Fatalf("rebuild %v", r.Values)
	}
	if len(s.Marks) != 2 || s.Marks[0].Name != "rebuild-detect" || s.Marks[1].AtUs != 12*tickUs {
		t.Fatalf("marks %+v", s.Marks)
	}
}

// TestAttributionPartition builds one request whose marks partition
// [arrival, completion] and checks phase sums, histograms, and shares.
func TestAttributionPartition(t *testing.T) {
	c := New()
	a := c.StartRequest(stats.Read, 2*tick)
	a.Mark(PhaseQueue, 4*tick) // 2 ticks queue
	a.Mark(PhaseCmd, 5*tick)   // 1 tick cmd
	a.Mark(PhaseCmd, 5*tick)   // zero-width re-mark: no-op
	a.Mark(PhaseStall, 5*tick) // zero stall
	a.Mark(PhaseFlash, 11*tick)
	a.Mark(PhaseXfer, 14*tick)
	if got := a.phase[PhaseFlash]; got != 6*tick {
		t.Fatalf("flash phase %v", got)
	}
	c.FinishRequest(a, 14*tick, 4096)
	if c.Requests() != 1 || c.AttributionViolations() != 0 {
		t.Fatalf("requests=%d violations=%d", c.Requests(), c.AttributionViolations())
	}
	s := c.Summary(20 * tick)
	var total float64
	for _, p := range s.Phases {
		if p.Kind != "read" {
			t.Fatalf("unexpected kind %q", p.Kind)
		}
		total += p.TotalUs
	}
	if total != 12*tickUs { // 14 ticks - 2 ticks arrival
		t.Fatalf("phase totals sum to %vus, want %v", total, 12*tickUs)
	}
	var shares float64
	for _, p := range s.Phases {
		shares += p.Share
	}
	if shares < 0.999 || shares > 1.001 {
		t.Fatalf("shares sum to %v", shares)
	}
	// Zero-duration phases still appear (count > 0) with zero total.
	names := map[string]PhaseSummary{}
	for _, p := range s.Phases {
		names[p.Phase] = p
	}
	if names["gc-stall"].Count != 1 || names["gc-stall"].TotalUs != 0 {
		t.Fatalf("gc-stall row %+v", names["gc-stall"])
	}
}

// TestAttributionViolationDetected: a request whose final mark does not
// land on the completion time fails the partition identity and is
// counted, not dropped.
func TestAttributionViolationDetected(t *testing.T) {
	c := New()
	a := c.StartRequest(stats.Write, 0)
	a.Mark(PhaseFlash, 5*tick)
	c.FinishRequest(a, 9*tick, 0) // 4 ticks never credited to any phase
	if c.AttributionViolations() != 1 {
		t.Fatalf("violations %d, want 1", c.AttributionViolations())
	}
	if c.Requests() != 1 {
		t.Fatalf("requests %d", c.Requests())
	}
}

// TestRecordCompletionOrderIndependent pins the property the array tier
// relies on: feeding completions in any order yields the same summary.
func TestRecordCompletionOrderIndependent(t *testing.T) {
	type rec struct {
		kind             stats.IOKind
		arrive, complete sim.Time
		bytes            int64
	}
	recs := []rec{
		{stats.Read, 0, 7 * tick, 4096},
		{stats.Write, 3 * tick, 25 * tick, 8192},
		{stats.Read, 5 * tick, 6 * tick, 4096},
		{stats.Write, 0, 40 * tick, 4096},
	}
	build := func(order []int) string {
		c := New()
		for _, i := range order {
			r := recs[i]
			c.RecordCompletion(r.kind, r.arrive, r.complete, r.bytes)
		}
		raw, _ := json.Marshal(c.Summary(40 * tick))
		return string(raw)
	}
	fwd := build([]int{0, 1, 2, 3})
	rev := build([]int{3, 2, 1, 0})
	mix := build([]int{2, 0, 3, 1})
	if fwd != rev || fwd != mix {
		t.Fatalf("summary depends on completion feed order:\n%s\n%s\n%s", fwd, rev, mix)
	}
}

// TestPhaseStringNames pins the stable JSON phase names.
func TestPhaseStringNames(t *testing.T) {
	want := map[Phase]string{
		PhaseQueue: "sq-wait", PhaseCmd: "cmd", PhaseXfer: "nvme-xfer",
		PhaseStall: "gc-stall", PhaseFlash: "flash",
	}
	for p, name := range want {
		if p.String() != name {
			t.Fatalf("phase %d = %q, want %q", p, p.String(), name)
		}
	}
	if Phase(99).String() != "unknown" || Phase(-1).String() != "unknown" {
		t.Fatal("out-of-range phase name")
	}
}
