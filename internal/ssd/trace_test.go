package ssd

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/ftl"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runGCHeavy executes the determinism workload (GC-heavy SpGC run on
// pnSSD+split) with or without tracing and returns the device.
func runGCHeavy(t *testing.T, traced bool, attach ...func(*SSD)) *SSD {
	t.Helper()
	cfg := tinyConfig()
	cfg.FTL.GCMode = ftl.GCSpatial
	cfg.LogicalUtilization = 0.75
	if traced {
		cfg.Trace = &trace.Config{}
	}
	s := New(ArchPnSSDSplit, cfg)
	for _, f := range attach {
		f(s)
	}
	foot := s.Config.LogicalPages()
	s.Host.Warmup(foot)
	tr, err := workload.Named("exchange-1", foot, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.Host.MustReplay(tr.Requests)
	s.Run()
	return s
}

// TestTracingOffIsBitIdentical is the acceptance gate for the disabled
// path: a run with the tracing hooks compiled in but detached must execute
// the exact same event sequence — same event count, same latencies, same
// GC activity — as a traced run of the same workload. Tracing is passive;
// only the recorder side differs.
func TestTracingOffIsBitIdentical(t *testing.T) {
	off := runGCHeavy(t, false)
	on := runGCHeavy(t, true)

	if off.Tracer.Enabled() {
		t.Fatal("untraced run has a live recorder")
	}
	if !on.Tracer.Enabled() {
		t.Fatal("traced run has no recorder")
	}
	if a, b := off.Engine.EventsFired(), on.Engine.EventsFired(); a != b {
		t.Fatalf("event counts diverge: %d untraced vs %d traced", a, b)
	}
	if a, b := off.Engine.Now(), on.Engine.Now(); a != b {
		t.Fatalf("end times diverge: %v vs %v", a, b)
	}
	mo, mt := off.Metrics(), on.Metrics()
	if mo.MeanLatency() != mt.MeanLatency() || mo.KIOPS() != mt.KIOPS() {
		t.Fatalf("metrics diverge: (%v, %v) vs (%v, %v)",
			mo.MeanLatency(), mo.KIOPS(), mt.MeanLatency(), mt.KIOPS())
	}
	so, st := off.FTL.Stats(), on.FTL.Stats()
	if so != st {
		t.Fatalf("FTL stats diverge: %+v vs %+v", so, st)
	}
	if on.Tracer.Events() == 0 {
		t.Fatal("traced GC-heavy run recorded no events")
	}
}

// trackKinds exports s's trace and counts its declared tracks by kind.
// The export names each track "<kind> <resource>".
func trackKinds(t *testing.T, s *SSD) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Tracer.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	kinds := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			name, _ := e.Args["name"].(string)
			kind, _, _ := strings.Cut(name, " ")
			kinds[kind]++
		}
	}
	return kinds
}

// TestTraceExportCoversDevice checks the export acceptance criteria: the
// Chrome JSON is valid and declares at least one track per h-channel,
// v-channel, and chip.
func TestTraceExportCoversDevice(t *testing.T) {
	s := runGCHeavy(t, true)
	kinds := trackKinds(t, s)
	cfg := s.Config
	if kinds[trace.KindHChannel] != cfg.Channels {
		t.Fatalf("%d h-channel tracks, want %d", kinds[trace.KindHChannel], cfg.Channels)
	}
	if kinds[trace.KindVChannel] == 0 {
		t.Fatal("no v-channel tracks on an Omnibus fabric")
	}
	if want := s.Grid.NumChips(); kinds[trace.KindChip] != want {
		t.Fatalf("%d chip tracks, want %d", kinds[trace.KindChip], want)
	}
}

// TestTraceBusyAgreesWithChannels checks that the per-bus busy time of
// the utilization matrix behind the traced heat table agrees with each
// channel's own TotalBusy accounting within 1% — the heatmap and the
// report must tell one story.
func TestTraceBusyAgreesWithChannels(t *testing.T) {
	var m *stats.UtilMatrix
	s := runGCHeavy(t, true, func(s *SSD) { m = s.AttachChannelUtil() })
	buses := s.Buses()
	if len(m.Recorders) != len(buses) {
		t.Fatalf("%d matrix rows for %d buses", len(m.Recorders), len(buses))
	}
	checked := 0
	for i, b := range buses {
		got := int64(m.Recorders[i].Total())
		want := int64(b.Channel.TotalBusy())
		if want == 0 {
			if got != 0 {
				t.Fatalf("bus %s: matrix busy %d but channel idle", b.Name, got)
			}
			continue
		}
		if rel := math.Abs(float64(got-want)) / float64(want); rel > 0.01 {
			t.Fatalf("bus %s: matrix busy %d vs channel %d (%.2f%% off)", b.Name, got, want, rel*100)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no busy bus to compare")
	}
}

// TestSummarizeShape exercises the -metrics-json digest on a traced run.
func TestSummarizeShape(t *testing.T) {
	s := runGCHeavy(t, true)
	var buf bytes.Buffer
	if err := s.WriteSummaryJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatalf("summary is not valid JSON: %v", err)
	}
	if sum.Arch != ArchPnSSDSplit.String() {
		t.Fatalf("arch %q", sum.Arch)
	}
	if sum.Requests != 400 || sum.EventsFired <= 0 || sum.SimTimeUs <= 0 {
		t.Fatalf("summary core fields: %+v", sum)
	}
	if sum.ReadLatency.Count+sum.WriteLatency.Count != sum.Requests {
		t.Fatalf("latency counts %d+%d != %d requests",
			sum.ReadLatency.Count, sum.WriteLatency.Count, sum.Requests)
	}
	if len(sum.Buses) == 0 {
		t.Fatal("no bus summaries on an Omnibus device")
	}
	if sum.GCRounds == 0 {
		t.Fatal("GC-heavy run reports zero GC rounds")
	}
	if sum.TraceEvents == 0 || sum.TraceHolds == 0 {
		t.Fatalf("trace totals missing: events=%d holds=%d", sum.TraceEvents, sum.TraceHolds)
	}
}

// A baseSSD GC copy is visible like a pnSSD one: the bus architectures
// are the channel fabric with no v-channels, so their relayed copies get
// the same trace span, path counter and checker notification. The three
// counts must agree on a traced, checked PaGC run.
func TestBusArchRelayedCopiesObservable(t *testing.T) {
	cfg := gcConfig()
	cfg.Trace = &trace.Config{}
	cfg.Check = &check.Config{}
	s := New(ArchBase, cfg)
	foot := s.Config.LogicalPages()
	s.Host.Warmup(foot)
	tr, err := workload.Named("rocksdb-1", foot, 300, 23)
	if err != nil {
		t.Fatal(err)
	}
	s.Host.MustReplay(tr.Requests)
	s.Run()

	var buf bytes.Buffer
	if err := s.Tracer.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Name, Ph string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var spans int64
	for _, ev := range doc.TraceEvents {
		if ev.Name == "relay-copy" && ev.Ph == "b" {
			spans++
		}
	}
	fab, ok := s.Fabric.(*controller.OmnibusFabric)
	if !ok {
		t.Fatalf("baseSSD fabric is %T, want the channel fabric", s.Fabric)
	}
	_, _, _, _, relayed := fab.PathCounts()
	_, checked := s.Checker.CopyCounts()
	if spans == 0 || spans != relayed || relayed != checked {
		t.Fatalf("relayed copies: %d trace spans, %d fabric, %d checker; want equal and nonzero", spans, relayed, checked)
	}
	if copied := s.FTL.Stats().GCPagesCopied; relayed != copied {
		t.Fatalf("%d relayed copies, FTL copied %d pages", relayed, copied)
	}
}
