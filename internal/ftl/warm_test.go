package ftl

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/flash"
)

// TestRestoreWarmCopiesFreeLists: a saved state in which GC has erased
// blocks restores every plane's free list in its saved order. Install and
// Reinstall only pop free blocks, so a warm-up leaves the lists' contents
// as New laid them out; an erase pushes a block back out of that order,
// and only a restore that copies the lists opens the same block next.
func TestRestoreWarmCopiesFreeLists(t *testing.T) {
	e, src, _ := rig(DefaultConfig(), 320)
	ws := src.SaveWarm(func() {
		for lpn := int64(0); lpn < 320; lpn++ {
			src.Install(lpn, TokenFor(lpn, 0))
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; src.Stats().GCBlocksErased == 0; i++ {
			if i == 2000 {
				t.Fatal("2000 overwrites erased no block")
			}
			lpn := rng.Int63n(320)
			src.Write([]int64{lpn}, []flash.Token{TokenFor(lpn, int64(i+1))}, func() {})
			e.Run()
		}
	})
	_, built, _ := rig(DefaultConfig(), 320)
	if slices.Equal(src.freeLists, built.freeLists) {
		t.Fatal("the erases left the free lists as built: nothing to restore")
	}

	_, dst, _ := rig(DefaultConfig(), 320)
	dst.RestoreWarm(ws)
	if !slices.Equal(dst.freeLists, src.freeLists) {
		t.Fatalf("restored free lists %v, saved %v", dst.freeLists, src.freeLists)
	}
	for i := range src.planes {
		if !slices.Equal(dst.planes[i].free, src.planes[i].free) {
			t.Fatalf("plane %d: restored free pool %v, saved %v", i, dst.planes[i].free, src.planes[i].free)
		}
	}
	if !slices.Equal(dst.l2p, src.l2p) || !slices.Equal(dst.blocks, src.blocks) {
		t.Fatal("restored maps or blocks differ from the saved state")
	}
	if err := dst.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
