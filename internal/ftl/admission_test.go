package ftl

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
)

// memoChecked runs the engine one event at a time, calling
// CheckConsistency (which re-scans every slot whenever the admission
// memo is live) after every event, and counts the events after which
// the memo was live.
func memoChecked(t *testing.T, e *sim.Engine, f *FTL) (live int) {
	t.Helper()
	for e.Step() {
		if err := f.CheckConsistency(); err != nil {
			t.Fatalf("event at %v: %v", e.Now(), err)
		}
		if f.hostFullAt == f.epoch {
			live++
		}
	}
	return live
}

// The admission memo lets a parked write fail without scanning while
// nothing that could widen host admission has happened. Bursts of
// multi-page writes on a nearly full device keep writes stalling while
// SpGC rounds swap the groups and program and erase failures retire
// blocks; after every event the memo must agree with a full scan.
func TestAdmissionMemoMatchesScanUnderChurn(t *testing.T) {
	for _, mode := range []GCMode{GCSpatial, GCParallel} {
		cfg := DefaultConfig()
		cfg.GCMode = mode
		cfg.GCThreshold = 0.3
		const footprint = 750
		e, f, _ := omniRig(cfg, footprint, 2, 4)
		inj := fault.New(fault.Config{Seed: 3, ProgramFailsPerChip: 1, EraseFailsPerChip: 1})
		f.SetFaults(inj)
		for lpn := int64(0); lpn < footprint; lpn++ {
			f.Install(lpn, TokenFor(lpn, 0))
		}
		rng := rand.New(rand.NewSource(9))
		live := 0
		for burst := 0; burst < 8; burst++ {
			for i := 0; i < 16; i++ {
				pages := 1 + rng.Intn(4)
				lpn := rng.Int63n(footprint / 3)
				lpns := make([]int64, pages)
				toks := make([]flash.Token, pages)
				for p := range lpns {
					lpns[p] = (lpn + int64(p)) % footprint
					toks[p] = TokenFor(lpns[p], int64(burst*16+i+1))
				}
				f.Write(lpns, toks, func() {})
			}
			live += memoChecked(t, e, f)
		}
		if f.StalledWrites() != 0 || f.Outstanding() != 0 {
			t.Fatalf("%v: %d writes parked and %d ops outstanding at drain", mode, f.StalledWrites(), f.Outstanding())
		}
		st, ras := f.Stats(), inj.RAS()
		if st.WriteStalls == 0 || live == 0 {
			t.Fatalf("%v: %d stalls, memo live after %d events: churn never exercised the memo", mode, st.WriteStalls, live)
		}
		if st.GCRounds < 4 || ras.ProgramFails == 0 || ras.EraseFails == 0 {
			t.Fatalf("%v: %d GC rounds, %d program and %d erase fails: churn too light", mode, st.GCRounds, ras.ProgramFails, ras.EraseFails)
		}
	}
}

// A memo left standing after admission widened is exactly what the
// oracle in CheckConsistency exists to catch.
func TestCheckConsistencyCatchesStaleAdmissionMemo(t *testing.T) {
	_, f, _ := rig(DefaultConfig(), 256)
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	f.hostFullAt = f.epoch // claim no slot admits a write on an empty device
	err := f.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "admission memo") {
		t.Fatalf("stale memo not reported: %v", err)
	}
}
