package ssd

import (
	"bytes"
	"testing"

	"repro/internal/check"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestSingleTenantFrontendBitEquivalence pins the tentpole's
// compatibility guarantee: a one-tenant front end with an unlimited
// inflight window is a transparent pass-through, so a run through it is
// bit-identical — same event count, same drain time, same summary JSON
// — to driving the Host directly. A regression here means multi-tenant
// support changed single-tenant results.
func TestSingleTenantFrontendBitEquivalence(t *testing.T) {
	makeTrace := func(cfg Config) workload.Trace {
		tr, err := workload.Named("rocksdb-1", cfg.LogicalPages(), 400, 7)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	run := func(frontend bool) ([]byte, int64, sim.Time) {
		cfg := tinyConfig()
		cfg.FTL.GCMode = ftl.GCSpatial
		cfg.LogicalUtilization = 0.75
		if frontend {
			cfg.Frontend = &host.FrontendConfig{
				Tenants: []host.TenantConfig{{Name: "only"}},
				Arbiter: host.ArbRR,
				// MaxInflight 0: dispatch at enqueue, nothing ever queues.
			}
		}
		s := New(ArchPnSSDSplit, cfg)
		foot := cfg.LogicalPages()
		s.Host.Warmup(foot)
		tr := makeTrace(cfg)
		var completed []sim.Time
		var err error
		if frontend {
			completed, err = s.Frontend.Replay(tr.Requests)
		} else {
			completed, err = s.Host.Replay(tr.Requests)
		}
		if err != nil {
			t.Fatalf("replay (frontend=%v): %v", frontend, err)
		}
		end := s.Run()
		if completions(completed) != len(tr.Requests) {
			t.Fatalf("frontend=%v: completed %d of %d", frontend, completions(completed), len(tr.Requests))
		}
		var buf bytes.Buffer
		if err := s.WriteSummaryJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), s.Engine.EventsFired(), end
	}
	direct, dEvents, dEnd := run(false)
	fronted, fEvents, fEnd := run(true)
	if dEvents != fEvents {
		t.Fatalf("event counts diverge: direct %d, frontend %d", dEvents, fEvents)
	}
	if dEnd != fEnd {
		t.Fatalf("drain times diverge: direct %v, frontend %v", dEnd, fEnd)
	}
	if !bytes.Equal(direct, fronted) {
		t.Fatalf("summaries diverge:\ndirect:   %s\nfrontend: %s", direct, fronted)
	}
}

// TestMultiTenantRunWithCheckerAndTrace exercises the full wiring: a
// two-tenant noisy-neighbor run with the invariant checker and tracer
// attached must drain cleanly, satisfy every tenant invariant, record
// per-tenant metrics, and emit per-tenant trace tracks.
func TestMultiTenantRunWithCheckerAndTrace(t *testing.T) {
	for _, arb := range host.ArbiterNames() {
		cfg := tinyConfig()
		cfg.FTL.GCMode = ftl.GCSpatial
		cfg.LogicalUtilization = 0.75
		cfg.Check = &check.Config{}
		cfg.Trace = &trace.Config{}
		specs := []workload.TenantSpec{
			{Name: "reader", Preset: "web-0", Requests: 150, Weight: 4, ReadSLO: 300 * sim.Microsecond},
			{Name: "writer", Preset: "update-0", Requests: 150, Weight: 1, Burst: 4,
				On: 300 * sim.Microsecond, Off: 900 * sim.Microsecond},
		}
		cfg.Frontend = &host.FrontendConfig{
			Tenants:     workload.QueueConfigs(specs),
			Arbiter:     arb,
			MaxInflight: 8,
		}
		s := New(ArchPnSSDSplit, cfg)
		foot := cfg.LogicalPages()
		s.Host.Warmup(foot)
		tr, err := workload.GenerateTenants(specs, foot, 11)
		if err != nil {
			t.Fatal(err)
		}
		completed, err := s.Frontend.Replay(tr.Requests)
		if err != nil {
			t.Fatalf("%s: %v", arb, err)
		}
		s.Engine.Run()
		if err := s.VerifyInvariants(); err != nil {
			t.Fatalf("%s: %v", arb, err)
		}
		if completions(completed) != len(tr.Requests) {
			t.Fatalf("%s: completed %d of %d", arb, completions(completed), len(tr.Requests))
		}
		for i, tm := range s.Frontend.Metrics().Tenants {
			if tm.TotalRequests() != 150 {
				t.Fatalf("%s: tenant %d recorded %d requests", arb, i, tm.TotalRequests())
			}
			q, g, d := s.Checker.TenantCounts(i)
			if q != 150 || g != 150 || d != 150 {
				t.Fatalf("%s: tenant %d ledger %d/%d/%d, want 150 each", arb, i, q, g, d)
			}
		}
		if got := trackKinds(t, s)[trace.KindTenant]; got != 2 {
			t.Fatalf("%s: %d tenant trace tracks, want 2", arb, got)
		}
	}
}

// TestMultiTenantDeterminism: the same two-tenant configuration twice
// must be bit-identical (the prop harness asserts the same across
// worker counts; this is the cheap in-package version).
func TestMultiTenantDeterminism(t *testing.T) {
	run := func() (sim.Time, int64, int64) {
		cfg := tinyConfig()
		cfg.FTL.GCMode = ftl.GCParallel
		cfg.LogicalUtilization = 0.75
		specs := []workload.TenantSpec{
			{Name: "a", Preset: "exchange-1", Requests: 120, Weight: 2},
			{Name: "b", Preset: "mail-0", Requests: 120, Weight: 1},
		}
		cfg.Frontend = &host.FrontendConfig{
			Tenants:     workload.QueueConfigs(specs),
			Arbiter:     host.ArbDWRR,
			MaxInflight: 4,
		}
		s := New(ArchPSSD, cfg)
		foot := cfg.LogicalPages()
		s.Host.Warmup(foot)
		tr, err := workload.GenerateTenants(specs, foot, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Frontend.Replay(tr.Requests); err != nil {
			t.Fatal(err)
		}
		end := s.Run()
		return end, s.Engine.EventsFired(), s.Frontend.Metrics().Tenants[0].SLOViolations() + s.Frontend.Grants(1)
	}
	e1, f1, x1 := run()
	e2, f2, x2 := run()
	if e1 != e2 || f1 != f2 || x1 != x2 {
		t.Fatalf("non-deterministic: (%v,%d,%d) vs (%v,%d,%d)", e1, f1, x1, e2, f2, x2)
	}
}
