package ssd

import (
	"bytes"
	"testing"

	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/ftl"
	"repro/internal/workload"
)

// TestSchedulerFIFOByteIdentical pins the default-path contract of the
// scheduling refactor: Scheduler "" and "fifo" both leave the fabric
// unwrapped, so the whole artifact set — summary, trace, telemetry —
// matches today's output byte for byte.
func TestSchedulerFIFOByteIdentical(t *testing.T) {
	refSummary, refChrome, refTel, ref := instrumentedArtifacts(t, func(*Config) {})
	if ref.Sched != nil {
		t.Fatal("default config built a scheduling layer")
	}
	summary, chrome, tel, s := instrumentedArtifacts(t, func(c *Config) { c.Scheduler = "fifo" })
	if s.Sched != nil {
		t.Fatal("explicit fifo built a scheduling layer")
	}
	if !bytes.Equal(summary, refSummary) || !bytes.Equal(chrome, refChrome) || !bytes.Equal(tel, refTel) {
		t.Fatal("explicit fifo output diverges from the default")
	}
	if bytes.Contains(refSummary, []byte("\"scheduler\"")) {
		t.Fatal("default summary leaks scheduler fields")
	}
}

// TestInstrumentedNonDefaultModes: the non-FIFO policies and fmmu mapping
// drain clean with tracing, the checker (scheduler and map ledgers
// included), and telemetry all live, and the summary JSON names the mode.
func TestInstrumentedNonDefaultModes(t *testing.T) {
	for _, tc := range []struct {
		edit func(*Config)
		want string
	}{
		{func(c *Config) { c.Scheduler = "conflict" }, `"scheduler": "conflict"`},
		{func(c *Config) { c.Scheduler = "ooo" }, `"scheduler": "ooo"`},
		{func(c *Config) { c.Mapping = "fmmu"; c.MapCacheEntries = 16 }, `"mapping": "fmmu"`},
	} {
		summary, _, _, _ := instrumentedArtifacts(t, tc.edit)
		if !bytes.Contains(summary, []byte(tc.want)) {
			t.Errorf("summary JSON lacks %s", tc.want)
		}
	}
}

// TestSchedulerWiring covers the constructor plumbing: the wrapper is
// interposed for non-FIFO policies (FTL side) while SSD.Fabric stays the
// inner fabric for tracing/summary accessors, and the checker's
// scheduling ledger engages under -check.
func TestSchedulerWiring(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scheduler = "conflict"
	cfg.FTL.GCMode = ftl.GCSpatial
	cfg.LogicalUtilization = 0.75
	cfg.Check = &check.Config{}
	s := New(ArchPnSSDSplit, cfg)
	if s.Sched == nil || s.Sched.Policy() != controller.SchedConflict {
		t.Fatalf("Sched = %+v, want conflict wrapper", s.Sched)
	}
	if _, ok := s.Fabric.(*controller.OmnibusFabric); !ok {
		t.Fatalf("SSD.Fabric is %T, want the inner Omnibus fabric", s.Fabric)
	}
	if s.Sched.Inner() != s.Fabric {
		t.Fatal("wrapper does not wrap SSD.Fabric")
	}
	if s.Buses() == nil {
		t.Fatal("bus enumeration broke under the scheduling layer")
	}
	foot := s.Config.LogicalPages()
	s.Host.Warmup(foot)
	tr, err := workload.Named("rocksdb-0", foot, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.Host.MustReplay(tr.Requests)
	s.Run() // checker enabled: violations panic
	if issued, done := s.Checker.SchedCounts(); issued == 0 || issued != done {
		t.Fatalf("scheduler ledger saw issued=%d done=%d", issued, done)
	}
	sum := s.Summarize()
	if sum.Scheduler != "conflict" {
		t.Fatalf("summary scheduler = %q", sum.Scheduler)
	}
	if sum.SchedDeferred == 0 {
		t.Fatal("GC-heavy split workload never deferred a conflicting path")
	}

	// ooo wiring: the window is enforced, so the checker must have seen
	// in-window issues only (a violation would have panicked above).
	cfg.Scheduler = "ooo"
	s2 := New(ArchPnSSDSplit, cfg)
	if s2.Sched == nil || s2.Sched.Policy() != controller.SchedOOO {
		t.Fatal("ooo wiring failed")
	}
	s2.Host.Warmup(foot)
	s2.Host.MustReplay(tr.Requests)
	s2.Run()
	if sum2 := s2.Summarize(); sum2.Scheduler != "ooo" || sum2.SchedReordered == 0 {
		t.Fatalf("ooo summary = %q reordered=%d, want reorders under load", sum2.Scheduler, sum2.SchedReordered)
	}
}

func TestSchedulerValidate(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scheduler = "venice"
	defer func() {
		if recover() == nil {
			t.Fatal("Validate accepted an unknown scheduler policy")
		}
	}()
	cfg.Validate()
}
