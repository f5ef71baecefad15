package ftl

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
)

// freeRecount sums the planes' free pools: the value the incremental
// device-wide count must always equal.
func freeRecount(f *FTL) int {
	n := 0
	for _, ps := range f.planes {
		n += len(ps.free)
	}
	return n
}

// checkFreeCount fails the test as soon as the count and the pools
// disagree.
func checkFreeCount(t *testing.T, f *FTL, step string) {
	t.Helper()
	if got, want := f.alloc.freeBlocks, freeRecount(f); got != want {
		t.Fatalf("%s: free-block count %d, pools hold %d", step, got, want)
	}
}

// drainChecked runs the engine one event at a time, recounting the free
// pools after every event.
func drainChecked(t *testing.T, e *sim.Engine, f *FTL) {
	t.Helper()
	for e.Step() {
		checkFreeCount(t, f, "event at "+e.Now().String())
	}
}

// churnChecked installs the footprint and overwrites a skewed random LPN
// stream, recounting the free pools after every install, every write
// submission and every engine event.
func churnChecked(t *testing.T, e *sim.Engine, f *FTL, footprint int64, writes int, seed int64) {
	t.Helper()
	for lpn := int64(0); lpn < footprint; lpn++ {
		f.Install(lpn, TokenFor(lpn, 0))
		checkFreeCount(t, f, "install")
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < writes; i++ {
		lpn := rng.Int63n(footprint / 4)
		if rng.Float64() < 0.2 {
			lpn = rng.Int63n(footprint)
		}
		f.Write([]int64{lpn}, []flash.Token{TokenFor(lpn, int64(i+1))}, func() {})
		checkFreeCount(t, f, "write submit")
		if i%8 == 7 {
			drainChecked(t, e, f)
		}
	}
	drainChecked(t, e, f)
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Program- and erase-fail injection retire blocks from every state the
// free pools care about; the incremental count must follow each one.
func TestFreeBlockCountTracksPoolsUnderFaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GCMode = GCParallel
	e, f, _ := rig(cfg, 192)
	inj := fault.New(fault.Config{Seed: 11, ProgramFailsPerChip: 2, EraseFailsPerChip: 1})
	f.SetFaults(inj)
	churnChecked(t, e, f, 192, 700, 5)

	ras := inj.RAS()
	if ras.ProgramFails == 0 || ras.EraseFails == 0 {
		t.Fatalf("ProgramFails=%d EraseFails=%d: churn must exercise both retirement paths", ras.ProgramFails, ras.EraseFails)
	}
	terminal := 0
	for _, ps := range f.planes {
		for b := range ps.blocks {
			if ps.blocks[b].state == BlockRetired {
				terminal++
			}
		}
	}
	if terminal == 0 {
		t.Fatal("no block reached BlockRetired through the erase-fail path")
	}

	// Retire a block while it sits in a free pool, then while it is the
	// open host block: the first must leave the count, the second must
	// not touch it.
	var freeRetired, openRetired bool
	for ch := 0; ch < 2; ch++ {
		for w := 0; w < 2; w++ {
			id := controller.ChipID{Channel: ch, Way: w}
			for pl := 0; pl < smallGeo().Planes; pl++ {
				ps := f.planeAt(id, pl)
				if !freeRetired && len(ps.free) > 0 {
					before := f.alloc.freeBlocks
					f.retireBlock(id, pl, ps.free[0])
					checkFreeCount(t, f, "retire free block")
					if f.alloc.freeBlocks != before-1 {
						t.Fatalf("retiring a free block moved the count %d -> %d", before, f.alloc.freeBlocks)
					}
					freeRetired = true
					continue
				}
				if !openRetired && (ps.active >= 0 || len(ps.free) > 0) {
					if ps.active < 0 {
						if _, _, err := ps.allocate(); err != nil {
							t.Fatal(err)
						}
						checkFreeCount(t, f, "open host block")
					}
					before := f.alloc.freeBlocks
					f.retireBlock(id, pl, ps.active)
					checkFreeCount(t, f, "retire open block")
					if f.alloc.freeBlocks != before {
						t.Fatalf("retiring an open block moved the count %d -> %d", before, f.alloc.freeBlocks)
					}
					openRetired = true
				}
			}
		}
	}
	if !freeRetired || !openRetired {
		t.Fatalf("retired free=%v open=%v: rig left no candidate block", freeRetired, openRetired)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// The fmmu map unit carves its region out of the free pools at New; the
// count starts net of the carved blocks and stays exact under GC churn.
func TestFreeBlockCountTracksFmmuCarving(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Map = &MapConfig{Entries: 8}
	e, f, _ := rigOn(mapGeo(), cfg, 128)
	carved := len(f.mapu.blocks)
	if carved == 0 {
		t.Fatal("map unit carved no blocks")
	}
	if want := len(f.planes)*smallGeo().BlocksPerPlane - carved; f.alloc.freeBlocks != want {
		t.Fatalf("free-block count after carving = %d, want %d", f.alloc.freeBlocks, want)
	}
	checkFreeCount(t, f, "carve")
	churnChecked(t, e, f, 128, 500, 3)
	if f.Stats().GCBlocksErased == 0 {
		t.Fatal("churn never erased a block: the push path went untested")
	}
}

// A free-pool pop that skips the count's decrement is exactly the drift
// CheckConsistency exists to catch.
func TestCheckConsistencyCatchesSkippedFreeDecrement(t *testing.T) {
	_, f, _ := rig(noGC(), 256)
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	ps := &f.planes[0]
	ps.free = ps.free[:len(ps.free)-1] // pop without popFree
	err := f.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "free-block count") {
		t.Fatalf("skipped decrement not reported: %v", err)
	}
}
