package ssd

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/stats"
	"repro/internal/workload"
)

func faultyConfig(seed uint64) Config {
	cfg := tinyConfig()
	cfg.FTL.GCMode = ftl.GCParallel
	cfg.FTL.GCThreshold = 0.3
	cfg.LogicalUtilization = 0.75
	cfg.Fault = &fault.Config{
		Seed:                seed,
		ReadECCRate:         0.01,
		OnDieECCRate:        0.01,
		ProgramFailsPerChip: 2,
		EraseFailsPerChip:   1,
		GrantDropRate:       0.05,
	}
	return cfg
}

// The graceful-degradation acceptance run: every architecture finishes a
// GC-heavy trace at a 1% transient read-ECC rate with at least two
// program failures and one erase failure forced on every chip, ends with
// bit-identical logical state, and never panics or hangs. Faults may only
// change *when* things happen and which blocks hold the data — never what
// the device stores.
func TestArchitecturesPreserveLogicalStateUnderFaults(t *testing.T) {
	cfg := faultyConfig(23)
	foot := cfg.LogicalPages()
	tr, err := workload.Named("rocksdb-1", foot, 300, 23)
	if err != nil {
		t.Fatal(err)
	}
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
			t.Fatalf("%v: completed %d of %d under faults", arch, completions(completed), len(tr.Requests))
		}
		if err := s.FTL.CheckConsistency(); err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		for lpn := int64(0); lpn < foot; lpn++ {
			id, addr, ok := s.FTL.Map(lpn)
			if !ok {
				t.Fatalf("%v: LPN %d unmapped after faulted run", arch, lpn)
			}
			want := ftl.TokenFor(lpn, expected[lpn])
			if got := s.Grid.Chip(id).ContentAt(addr); got != want {
				t.Fatalf("%v: LPN %d content %x, want version %d", arch, lpn, got, expected[lpn])
			}
		}
		ras := s.RAS()
		if ras.ReadFaults == 0 {
			t.Fatalf("%v: 1%% read-ECC rate injected no read faults", arch)
		}
		// The per-chip quotas force >= 2 program failures on every chip
		// that programs at least two pages — under this trace, all of them.
		chips := int64(cfg.Channels * cfg.Ways)
		if ras.ProgramFails < 2*chips {
			t.Fatalf("%v: ProgramFails = %d, want >= %d", arch, ras.ProgramFails, 2*chips)
		}
		if ras.EraseFails < 1 {
			t.Fatalf("%v: no erase failure forced", arch)
		}
		if ras.BlocksRetired == 0 || int64(s.FTL.RetiredBlocks()) != ras.BlocksRetired {
			t.Fatalf("%v: retirement accounting mismatch: FTL=%d RAS=%d",
				arch, s.FTL.RetiredBlocks(), ras.BlocksRetired)
		}
	}
}

// Fault injection must not break reproducibility: the same fault seed
// yields identical metrics, identical event counts, and identical RAS
// counters.
func TestFaultDeterminism(t *testing.T) {
	run := func() (float64, float64, int64, string) {
		cfg := faultyConfig(5)
		cfg.FTL.GCMode = ftl.GCSpatial
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
		return m.MeanLatency().Microseconds(), m.KIOPS(), s.Engine.EventsFired(), s.RAS().String()
	}
	l1, k1, e1, r1 := run()
	l2, k2, e2, r2 := run()
	if l1 != l2 || k1 != k2 || e1 != e2 {
		t.Fatalf("non-deterministic under faults: (%v,%v,%d) vs (%v,%v,%d)", l1, k1, e1, l2, k2, e2)
	}
	if r1 != r2 {
		t.Fatalf("RAS counters diverged:\n%s\n%s", r1, r2)
	}
	if r1 == stats.NewRAS().String() {
		t.Fatal("faulted run recorded no RAS activity")
	}
}

// Killing v-channels degrades pnSSD but never deadlocks: the trace still
// completes over the h-channels, SpGC falls back to relayed copies, and
// logical state stays consistent — even with every v-channel dead.
func TestDeadVChannelsDegradeButComplete(t *testing.T) {
	run := func(dead []int) (latencyUs float64, ras *stats.RAS) {
		cfg := tinyConfig()
		cfg.FTL.GCMode = ftl.GCSpatial
		cfg.FTL.GCThreshold = 0.3
		cfg.LogicalUtilization = 0.75
		if dead != nil {
			cfg.Fault = &fault.Config{Seed: 7, DeadVChannels: dead}
		}
		s := New(ArchPnSSDSplit, cfg)
		foot := s.Config.LogicalPages()
		s.Host.Warmup(foot)
		tr, err := workload.Named("rocksdb-1", foot, 300, 7)
		if err != nil {
			t.Fatal(err)
		}
		completed := s.Host.MustReplay(tr.Requests)
		s.Run()
		if completions(completed) != len(tr.Requests) {
			t.Fatalf("dead=%v: completed %d of %d", dead, completions(completed), len(tr.Requests))
		}
		if err := s.FTL.CheckConsistency(); err != nil {
			t.Fatalf("dead=%v: %v", dead, err)
		}
		return s.Metrics().MeanLatency().Microseconds(), s.RAS()
	}

	healthy, _ := run(nil)
	oneDead, ras := run([]int{0})
	if ras.DegradedReturns == 0 {
		t.Fatal("dead v-channel forced no degraded h returns")
	}
	if oneDead < healthy {
		t.Fatalf("killing a v-channel improved latency: %v < %v", oneDead, healthy)
	}
	allDead, ras := run([]int{0, 1, 2, 3})
	if ras.DegradedReturns == 0 {
		t.Fatal("all-dead run recorded no degraded routing")
	}
	if allDead < oneDead {
		t.Fatalf("killing all v-channels beat killing one: %v < %v", allDead, oneDead)
	}
}
