package ssd

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/ftl"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runGCHeavy executes the determinism workload (GC-heavy SpGC run on
// pnSSD+split) with or without tracing and returns the device.
func runGCHeavy(t *testing.T, traced bool) *SSD {
	t.Helper()
	cfg := tinyConfig()
	cfg.FTL.GCMode = ftl.GCSpatial
	cfg.LogicalUtilization = 0.75
	if traced {
		cfg.Trace = &trace.Config{Window: 100 * sim.Microsecond}
	}
	s := New(ArchPnSSDSplit, cfg)
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

// TestTraceExportCoversDevice checks the export acceptance criteria: the
// Chrome JSON is valid and declares at least one track per h-channel,
// v-channel, and chip.
func TestTraceExportCoversDevice(t *testing.T) {
	s := runGCHeavy(t, true)
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
			// Track names are "<kind> <resource>".
			name, _ := e.Args["name"].(string)
			for _, k := range []string{trace.KindHChannel, trace.KindVChannel, trace.KindChip} {
				if len(name) > len(k) && name[:len(k)] == k {
					kinds[k]++
				}
			}
		}
	}
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

// TestTraceBusyAgreesWithChannels checks that the per-bus busy time
// reconstructed from hold spans agrees with each channel's own TotalBusy
// accounting within 1% — the heatmap and the report must tell one story.
func TestTraceBusyAgreesWithChannels(t *testing.T) {
	s := runGCHeavy(t, true)
	byKind := map[string]map[string]int64{}
	for _, kind := range []string{trace.KindHChannel, trace.KindVChannel} {
		byKind[kind] = map[string]int64{}
		for name, busy := range s.Tracer.BusyTotals(kind) {
			byKind[kind][name] = int64(busy)
		}
	}
	checked := 0
	for _, b := range s.Buses() {
		got, ok := byKind[b.Kind][b.Name]
		if !ok {
			t.Fatalf("bus %s (%s) has no trace track", b.Name, b.Kind)
		}
		want := int64(b.Channel.TotalBusy())
		if want == 0 {
			if got != 0 {
				t.Fatalf("bus %s: trace busy %d but channel idle", b.Name, got)
			}
			continue
		}
		if rel := math.Abs(float64(got-want)) / float64(want); rel > 0.01 {
			t.Fatalf("bus %s: trace busy %d vs channel %d (%.2f%% off)", b.Name, got, want, rel*100)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no busy bus to compare")
	}
}

// The Fig 3 matrix and the trace recorder's h-channel timelines are two
// consumers of the same probe enumeration over the same windowed
// accumulator: with equal windows they must agree window for window, on
// a bus fabric and on an Omnibus fabric.
func TestChannelUtilAgreesWithTraceHeatRows(t *testing.T) {
	const window = 100 * sim.Microsecond
	for _, arch := range []Arch{ArchBase, ArchPnSSDSplit} {
		cfg := tinyConfig()
		cfg.FTL.GCMode = ftl.GCSpatial
		cfg.LogicalUtilization = 0.75
		cfg.Trace = &trace.Config{Window: window}
		s := New(arch, cfg)
		m := s.AttachChannelUtil(window)
		foot := s.Config.LogicalPages()
		s.Host.Warmup(foot)
		tr, err := workload.Named("exchange-1", foot, 400, 5)
		if err != nil {
			t.Fatal(err)
		}
		s.Host.MustReplay(tr.Requests)
		end := s.Run()

		util := m.Rows()
		names, heat := s.Tracer.HeatRows(trace.KindHChannel, end)
		if len(util) != len(heat) || len(util) != cfg.Channels {
			t.Fatalf("%v: %d matrix rows vs %d trace rows (%v), want %d", arch, len(util), len(heat), names, cfg.Channels)
		}
		busy := 0.0
		for ch := range util {
			a, b := util[ch], heat[ch]
			for w := 0; w < len(a) || w < len(b); w++ {
				var x, y float64
				if w < len(a) {
					x = a[w]
				}
				if w < len(b) {
					y = b[w]
				}
				if x != y {
					t.Fatalf("%v %s window %d: matrix %v vs trace %v", arch, names[ch], w, x, y)
				}
				busy += x
			}
		}
		if busy == 0 {
			t.Fatalf("%v: no h-channel activity to compare", arch)
		}
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
