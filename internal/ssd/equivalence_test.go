package ssd

import (
	"testing"

	"repro/internal/ftl"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestArchitecturesPreserveIdenticalLogicalState replays the same GC-heavy
// trace on every Table III architecture and verifies that each device ends
// with exactly the same logical contents: for every LPN, the flash page
// its mapping points at stores the token of the last write the trace made
// to it. Interconnects may only change *when* things happen — never what
// the device stores.
func TestArchitecturesPreserveIdenticalLogicalState(t *testing.T) {
	cfg := tinyConfig()
	cfg.FTL.GCMode = ftl.GCParallel
	cfg.FTL.GCThreshold = 0.3
	cfg.LogicalUtilization = 0.75

	foot := cfg.LogicalPages()
	tr, err := workload.Named("rocksdb-1", foot, 300, 23)
	if err != nil {
		t.Fatal(err)
	}
	// Expected final version per LPN: count the write requests covering it,
	// replicating the host's page expansion (wrap at the footprint).
	expected := make(map[int64]int64)
	for _, r := range tr.Requests {
		if r.Kind != stats.Write {
			continue
		}
		for i := 0; i < r.Pages; i++ {
			lpn := (r.LPN + int64(i)) % foot
			expected[lpn]++
		}
	}

	for _, arch := range Archs {
		s := New(arch, cfg)
		s.Host.Warmup(foot)
		completed := s.Host.MustReplay(tr.Requests)
		s.Run()
		if completions(completed) != len(tr.Requests) {
			t.Fatalf("%v: completed %d of %d", arch, completions(completed), len(tr.Requests))
		}
		if err := s.FTL.CheckConsistency(); err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		for lpn := int64(0); lpn < foot; lpn++ {
			id, addr, ok := s.FTL.Map(lpn)
			if !ok {
				t.Fatalf("%v: LPN %d unmapped after run", arch, lpn)
			}
			want := ftl.TokenFor(lpn, expected[lpn])
			if got := s.Grid.Chip(id).ContentAt(addr); got != want {
				t.Fatalf("%v: LPN %d content %x, want version %d", arch, lpn, got, expected[lpn])
			}
		}
	}
}

// TestDeterminism runs the same configuration twice and demands
// bit-identical metrics: the whole simulator is supposed to be
// reproducible.
func TestDeterminism(t *testing.T) {
	run := func() (float64, float64, int64) {
		cfg := tinyConfig()
		cfg.FTL.GCMode = ftl.GCSpatial
		cfg.LogicalUtilization = 0.75
		s := New(ArchPnSSDSplit, cfg)
		foot := s.Config.LogicalPages()
		s.Host.Warmup(foot)
		tr, err := workload.Named("exchange-1", foot, 400, 5)
		if err != nil {
			t.Fatal(err)
		}
		s.Host.MustReplay(tr.Requests)
		s.Run()
		m := s.Metrics()
		return m.MeanLatency().Microseconds(), m.KIOPS(), s.Engine.EventsFired()
	}
	l1, k1, e1 := run()
	l2, k2, e2 := run()
	if l1 != l2 || k1 != k2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%v,%v,%d) vs (%v,%v,%d)", l1, k1, e1, l2, k2, e2)
	}
}
