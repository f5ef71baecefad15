package ftl

import (
	"testing"

	"repro/internal/controller"
	"repro/internal/flash"
	"repro/internal/sim"
)

// Regression test for the zero-victim GC recursion. On a device small
// enough that every Full block still has programs in flight when a host
// write runs out of space, the stall-triggered collection round selects
// no victims. finishGC used to retry the stalled write synchronously,
// which re-stalled, restarted GC, found no victims again, and recursed
// until the stack overflowed. The round now parks the write; the next
// program completion restarts collection and the write drains normally.
func TestGCZeroVictimRoundParksStalledWrites(t *testing.T) {
	geo := flash.Geometry{Planes: 1, BlocksPerPlane: 3, PagesPerBlock: 4, PageSize: 4096}
	e := sim.NewEngine()
	g := controller.NewGrid(e, 1, 1, geo, flash.ULLTiming())
	soc := controller.NewSoc(e, 8000, 8000)
	fab := controller.NewOmnibusFabric(e, "base", g, soc, geo.PageSize, 8, 0, 1000, false, false)
	cfg := DefaultConfig()
	cfg.GCMode = GCParallel
	f := New(e, fab, cfg, 4)

	done := 0
	write := func(lpn, ver int64) {
		f.Write([]int64{lpn}, []flash.Token{TokenFor(lpn, ver)}, func() { done++ })
	}
	// Fill block 0 (lpns 0-3), then block 1 (the same lpns again, making
	// block 0 all-garbage), all with their programs still queued on the
	// single die. The ninth write finds only the reserve block free and
	// stalls; the GC round it triggers sees two Full blocks, both with
	// in-flight programs — zero victims.
	for lpn := int64(0); lpn < 4; lpn++ {
		write(lpn, 0)
	}
	for lpn := int64(0); lpn < 4; lpn++ {
		write(lpn, 1)
	}
	write(0, 2)
	if f.StalledWrites() != 1 {
		t.Fatalf("stalled writes = %d, want 1 (scenario did not reproduce)", f.StalledWrites())
	}
	if f.GCActive() {
		t.Fatal("zero-victim round left GC marked active")
	}

	e.Run()

	if done != 9 {
		t.Fatalf("completed %d of 9 writes", done)
	}
	if f.StalledWrites() != 0 {
		t.Fatalf("%d writes still parked after drain", f.StalledWrites())
	}
	if got := contentOf(t, f, 0); got != TokenFor(0, 2) {
		t.Fatalf("LPN 0 content = %x, want the stalled write's token %x", got, TokenFor(0, 2))
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
