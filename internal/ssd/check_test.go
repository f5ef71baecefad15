package ssd

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/sim"
	"repro/internal/workload"
)

// gcConfig is tinyConfig with parallel GC forced on — the checker's
// interesting paths (copies, erases, stalls) all live behind GC.
func gcConfig() Config {
	cfg := tinyConfig()
	cfg.FTL.GCMode = ftl.GCParallel
	cfg.FTL.GCThreshold = 0.3
	cfg.LogicalUtilization = 0.75
	return cfg
}

// The headline acceptance run: every Table III architecture finishes a
// GC-heavy trace with the full invariant checker attached and reports
// zero violations — both on a healthy device and under the standard
// fault cocktail (which additionally exercises the RAS-balance drain
// check).
func TestCheckerCleanAcrossArchitectures(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"healthy", gcConfig()},
		{"faulty", faultyConfig(23)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Check = &check.Config{}
			foot := cfg.LogicalPages()
			tr, err := workload.Named("rocksdb-1", foot, 300, 23)
			if err != nil {
				t.Fatal(err)
			}
			for _, arch := range Archs {
				s := New(arch, cfg)
				s.Host.Warmup(foot)
				completed := s.Host.MustReplay(tr.Requests)
				s.Run() // panics on any violation
				if completions(completed) != len(tr.Requests) {
					t.Fatalf("%v: completed %d of %d", arch, completions(completed), len(tr.Requests))
				}
				if err := s.VerifyInvariants(); err != nil {
					t.Fatalf("%v: %v", arch, err)
				}
				if s.Checker.Checks() == 0 {
					t.Fatalf("%v: checker attached but asserted nothing", arch)
				}
			}
		})
	}
}

// The checker must be an observer, never a participant: with it on or
// off the very same workload fires the same number of events and
// produces a byte-identical run summary.
func TestCheckerPassivity(t *testing.T) {
	run := func(withCheck bool) (int64, []byte) {
		cfg := gcConfig()
		if withCheck {
			cfg.Check = &check.Config{}
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
		var buf bytes.Buffer
		if err := s.WriteSummaryJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return s.Engine.EventsFired(), buf.Bytes()
	}
	evOff, sumOff := run(false)
	evOn, sumOn := run(true)
	if evOff != evOn {
		t.Fatalf("checker perturbed the event sequence: %d events off, %d on", evOff, evOn)
	}
	if !bytes.Equal(sumOff, sumOn) {
		t.Fatalf("checker perturbed the run summary:\noff: %s\non:  %s", sumOff, sumOn)
	}
}

// corruptCopyFabric is the seeded-mutation test double: it delegates
// everything to a real baseSSD fabric but "performs" GC copies by instantly
// installing the wrong token at the destination — the classic silent
// relocation bug the page-conservation invariant exists to catch.
type corruptCopyFabric struct {
	controller.Fabric
	eng    *sim.Engine
	grid   *controller.Grid
	copies int
}

func (d *corruptCopyFabric) Copy(src controller.ChipID, from flash.PPA, dst controller.ChipID, to flash.PPA, done func()) {
	d.copies++
	tok := d.grid.Chip(src).ContentAt(from)
	d.grid.Chip(dst).InstallPage(to, tok+1)
	d.eng.Schedule(sim.Microsecond, done)
}

func TestCheckerCatchesCorruptedGCCopy(t *testing.T) {
	cfg := gcConfig()
	cfg.Check = &check.Config{}
	var liar *corruptCopyFabric
	s := NewCustom(ArchBase, cfg, func(eng *sim.Engine, grid *controller.Grid, soc *controller.Soc, pageSize int) controller.Fabric {
		inner := controller.NewOmnibusFabric(eng, "liar", grid, soc, pageSize, 8, 0, cfg.BusMTps, false, false)
		liar = &corruptCopyFabric{Fabric: inner, eng: eng, grid: grid}
		return liar
	})
	foot := s.Config.LogicalPages()
	s.Host.Warmup(foot)
	tr, err := workload.Named("rocksdb-1", foot, 300, 23)
	if err != nil {
		t.Fatal(err)
	}
	s.Host.MustReplay(tr.Requests)
	// Run the engine directly: SSD.Run would panic on the violation we
	// want to inspect.
	s.Engine.Run()
	if liar.copies == 0 {
		t.Fatal("workload never triggered a GC copy; mutation not exercised")
	}
	err = s.VerifyInvariants()
	if err == nil || !strings.Contains(err.Error(), "page-conservation") {
		t.Fatalf("corrupted GC copies not caught by conservation checker: %v", err)
	}
}
