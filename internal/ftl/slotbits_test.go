package ftl

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
)

// bitsChecked runs the engine one event at a time, calling
// CheckConsistency after every event: it holds each slot bit to its
// plane and the host search, with the cursor put back, to a walk of
// hostWriteAllowed from the cursor. It counts the events after which
// the host search failed and found a slot.
func bitsChecked(t *testing.T, e *sim.Engine, f *FTL) (full, open int) {
	t.Helper()
	for e.Step() {
		if err := f.CheckConsistency(); err != nil {
			t.Fatalf("event at %v: %v", e.Now(), err)
		}
		cur := f.alloc.cursor
		if _, ok := f.hostSlot(); ok {
			open++
		} else {
			full++
		}
		f.alloc.cursor = cur
	}
	return full, open
}

// Bursts of multi-page writes on a nearly full device keep writes
// stalling while SpGC rounds swap the groups and program and erase
// failures retire blocks; after every event the slot bits must match
// the planes and the host search must match a scan.
func TestSlotBitsMatchScanUnderChurn(t *testing.T) {
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
		if err := f.CheckConsistency(); err != nil {
			t.Fatalf("%v after install: %v", mode, err)
		}
		rng := rand.New(rand.NewSource(9))
		full, open := 0, 0
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
			fu, op := bitsChecked(t, e, f)
			full, open = full+fu, open+op
		}
		if f.StalledWrites() != 0 || f.Outstanding() != 0 {
			t.Fatalf("%v: %d writes parked and %d ops outstanding at drain", mode, f.StalledWrites(), f.Outstanding())
		}
		st, ras := f.Stats(), inj.RAS()
		if st.WriteStalls == 0 || full == 0 || open == 0 {
			t.Fatalf("%v: %d stalls, host search failed after %d events and found after %d: churn never exercised both outcomes", mode, st.WriteStalls, full, open)
		}
		if st.GCRounds < 4 || ras.ProgramFails == 0 || ras.EraseFails == 0 {
			t.Fatalf("%v: %d GC rounds, %d program and %d erase fails: churn too light", mode, st.GCRounds, ras.ProgramFails, ras.EraseFails)
		}
	}
}

// A slot bit or group mask that drifts from what it stands for is
// exactly what CheckConsistency's cross-check exists to catch.
func TestCheckConsistencyCatchesStaleSlotBit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GCMode = GCSpatial
	_, f, _ := rig(cfg, 256)
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	f.alloc.free.clear(3) // a plane with erased blocks claims none
	if err := f.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "slot bits") {
		t.Fatalf("stale free bit not reported: %v", err)
	}
	f.alloc.free.set(3)
	f.gcGroupMask().clear(len(f.alloc.slots) - 1) // the last slot is on the highest way
	if err := f.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "group masks") {
		t.Fatalf("stale group mask not reported: %v", err)
	}
}
