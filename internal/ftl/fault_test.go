package ftl

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/flash"
)

// A forced program failure retires the block and remaps the in-flight
// write to a fresh one; the host-visible result is indistinguishable
// from a clean write.
func TestProgramFailRetiresBlockAndRemapsWrite(t *testing.T) {
	e, f, _ := rig(noGC(), 256)
	inj := fault.New(fault.Config{Seed: 1, ProgramFailsPerChip: 1})
	f.SetFaults(inj)

	var lpns []int64
	var toks []flash.Token
	for lpn := int64(0); lpn < 16; lpn++ {
		lpns = append(lpns, lpn)
		toks = append(toks, TokenFor(lpn, 1))
	}
	done := false
	f.Write(lpns, toks, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("faulted write never completed")
	}
	for i, lpn := range lpns {
		if got := contentOf(t, f, lpn); got != toks[i] {
			t.Fatalf("LPN %d content = %x, want %x", lpn, got, toks[i])
		}
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	ras := inj.RAS()
	if ras.ProgramFails == 0 {
		t.Fatal("per-chip quota injected no program failures")
	}
	// One failure per chip and one retirement per failure.
	if int64(f.RetiredBlocks()) != ras.ProgramFails || ras.BlocksRetired != ras.ProgramFails {
		t.Fatalf("retired=%d BlocksRetired=%d ProgramFails=%d",
			f.RetiredBlocks(), ras.BlocksRetired, ras.ProgramFails)
	}
	if ras.WriteRemaps == 0 {
		t.Fatal("no in-flight write was remapped")
	}
	// Remapped LPNs stay readable.
	readDone := false
	f.Read(lpns, func() { readDone = true })
	e.Run()
	if !readDone {
		t.Fatal("read after remap never completed")
	}
}

// GC-heavy churn with program-fail and erase-fail quotas plus a small
// background rate: the device loses blocks to retirement mid-collection
// yet every LPN keeps its latest token and the FTL invariants hold.
func TestFaultChurnKeepsLogicalStateConsistent(t *testing.T) {
	// 192 LPNs on the 512-page rig leaves headroom for the up-to-12
	// blocks the quotas retire; a higher utilization would make the GC
	// threshold permanently unreachable on the shrunken pool.
	cfg := DefaultConfig()
	cfg.GCMode = GCParallel
	cfg.GCThreshold = 0.25
	e, f, _ := rig(cfg, 192)
	inj := fault.New(fault.Config{
		Seed:                11,
		ProgramFailsPerChip: 2,
		EraseFailsPerChip:   1,
	})
	f.SetFaults(inj)

	version := make(map[int64]int64)
	for lpn := int64(0); lpn < 192; lpn++ {
		f.Install(lpn, TokenFor(lpn, 0))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 700; i++ {
		var lpn int64
		if rng.Float64() < 0.9 {
			lpn = rng.Int63n(32)
		} else {
			lpn = 32 + rng.Int63n(160)
		}
		version[lpn]++
		f.Write([]int64{lpn}, []flash.Token{TokenFor(lpn, version[lpn])}, func() {})
		if i%8 == 7 {
			e.Run()
		}
	}
	e.Run()
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for lpn, v := range version {
		if got := contentOf(t, f, lpn); got != TokenFor(lpn, v) {
			t.Fatalf("LPN %d stale after faulted churn", lpn)
		}
	}
	ras := inj.RAS()
	if ras.ProgramFails < 2*4 {
		t.Fatalf("ProgramFails = %d, quota should force >= 8", ras.ProgramFails)
	}
	if ras.EraseFails < 1 {
		t.Fatalf("EraseFails = %d, quota should force >= 1 per erasing chip", ras.EraseFails)
	}
	if int64(f.RetiredBlocks()) != ras.BlocksRetired {
		t.Fatalf("RetiredBlocks()=%d != RAS BlocksRetired=%d", f.RetiredBlocks(), ras.BlocksRetired)
	}
	if f.Stats().GCBlocksErased == 0 {
		t.Fatal("GC made no progress under fault injection")
	}
}

// A block that fails erase is retired, never freed, and never allocated
// again; its terminal state is BlockRetired.
func TestEraseFailBlockReachesTerminalState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GCMode = GCParallel
	cfg.GCThreshold = 0.25
	e, f, _ := rig(cfg, 192)
	inj := fault.New(fault.Config{Seed: 3, EraseFailsPerChip: 1})
	f.SetFaults(inj)

	for lpn := int64(0); lpn < 192; lpn++ {
		f.Install(lpn, TokenFor(lpn, 0))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		lpn := rng.Int63n(64)
		f.Write([]int64{lpn}, []flash.Token{TokenFor(lpn, int64(i+1))}, func() {})
		if i%8 == 7 {
			e.Run()
		}
	}
	e.Run()
	ras := inj.RAS()
	if ras.EraseFails == 0 {
		t.Fatal("no erase failures were forced")
	}
	retired := 0
	for _, ps := range f.planes {
		for b := range ps.blocks {
			if !ps.blocks[b].bad {
				continue
			}
			retired++
			if ps.blocks[b].state == BlockFree {
				t.Fatalf("retired block %d returned to the free pool", b)
			}
			for _, fb := range ps.free {
				if fb == b {
					t.Fatalf("retired block %d listed as free", b)
				}
			}
		}
	}
	if retired == 0 {
		t.Fatal("erase failures retired no blocks")
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// A program failure on a GC copy destination redirects the copy to a new
// destination without corrupting the migrated page.
func TestGCCopyRetriesOnDestinationFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GCMode = GCParallel
	cfg.GCThreshold = 0.25
	e, f, _ := rig(cfg, 192)

	// Fragment through the warmup path, which performs no fault draws;
	// with the injector attached afterwards, the only program draws in
	// the run are GC copy destinations.
	version := make(map[int64]int64)
	for lpn := int64(0); lpn < 192; lpn++ {
		f.Install(lpn, TokenFor(lpn, 0))
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 250; i++ {
		lpn := rng.Int63n(192)
		version[lpn]++
		f.Reinstall(lpn, TokenFor(lpn, version[lpn]))
	}
	inj := fault.New(fault.Config{Seed: 2, ProgramFailsPerChip: 1})
	f.SetFaults(inj)

	done := false
	f.TriggerGC(func() { done = true })
	e.Run()
	if !done {
		t.Fatal("GC round never finished under copy-destination failures")
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < 192; lpn++ {
		if got := contentOf(t, f, lpn); got != TokenFor(lpn, version[lpn]) {
			t.Fatalf("LPN %d stale after GC copy retries", lpn)
		}
	}
	ras := inj.RAS()
	if ras.GCCopyRetries == 0 {
		t.Fatal("no GC copy destination failure was injected")
	}
	if ras.GCCopyRetries != ras.ProgramFails {
		t.Fatalf("GCCopyRetries=%d ProgramFails=%d: a non-GC program drew a fault", ras.GCCopyRetries, ras.ProgramFails)
	}
	if int64(f.RetiredBlocks()) != ras.BlocksRetired {
		t.Fatalf("RetiredBlocks()=%d != BlocksRetired=%d", f.RetiredBlocks(), ras.BlocksRetired)
	}
}
