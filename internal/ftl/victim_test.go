package ftl

import (
	"math/rand"
	"testing"

	"repro/internal/controller"
	"repro/internal/flash"
)

func TestVictimPolicyStrings(t *testing.T) {
	if VictimGreedy.String() != "greedy" || VictimCostBenefit.String() != "cost-benefit" {
		t.Fatal("victim policy strings wrong")
	}
}

// runVictimPolicy churns a device under the given victim policy and
// returns (pages copied, blocks erased): the write-amplification signal.
func runVictimPolicy(t *testing.T, policy VictimPolicy) (int64, int64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.GCMode = GCParallel
	cfg.GCThreshold = 0.3
	cfg.Victim = policy
	e, f, _ := rig(cfg, 320)
	version := make(map[int64]int64)
	for lpn := int64(0); lpn < 320; lpn++ {
		f.Install(lpn, TokenFor(lpn, 0))
	}
	// Skewed churn: a small hot set rewrites constantly, the rest is cold
	// — the regime where cost-benefit outperforms greedy.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 700; i++ {
		var lpn int64
		if rng.Float64() < 0.9 {
			lpn = rng.Int63n(32) // hot
		} else {
			lpn = 32 + rng.Int63n(288) // cold
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
			t.Fatalf("policy %v: LPN %d stale", policy, lpn)
		}
	}
	st := f.Stats()
	return st.GCPagesCopied, st.GCBlocksErased
}

func TestCostBenefitVictimCorrectAndReclaims(t *testing.T) {
	copied, erased := runVictimPolicy(t, VictimCostBenefit)
	if erased == 0 {
		t.Fatal("cost-benefit GC never erased")
	}
	if copied < 0 {
		t.Fatal("negative copies")
	}
}

func TestGreedyVictimCorrectAndReclaims(t *testing.T) {
	copied, erased := runVictimPolicy(t, VictimGreedy)
	if erased == 0 {
		t.Fatal("greedy GC never erased")
	}
	_ = copied
}

func TestVictimPoliciesBothMakeProgress(t *testing.T) {
	gCopied, gErased := runVictimPolicy(t, VictimGreedy)
	cbCopied, cbErased := runVictimPolicy(t, VictimCostBenefit)
	t.Logf("greedy: %d copied / %d erased; cost-benefit: %d copied / %d erased",
		gCopied, gErased, cbCopied, cbErased)
	// Both policies must reclaim; per-erase copy cost (write amplification
	// per reclaimed block) should be in a sane band for both.
	for _, pair := range []struct {
		name           string
		copied, erased int64
	}{{"greedy", gCopied, gErased}, {"cost-benefit", cbCopied, cbErased}} {
		perBlock := float64(pair.copied) / float64(pair.erased)
		if perBlock > 8 { // pagesPerBlock is 8 in the small rig
			t.Fatalf("%s: %f copies per erased block exceeds block size", pair.name, perBlock)
		}
	}
}

// When the copy budget binds, a round keeps the victims that free the
// most space. Spending it in scan order would keep the fully valid
// blocks on the first chip and drop the nearly empty ones behind them:
// a round that frees nothing, which on a device at its compaction limit
// chains forever through the stalled-write retry.
func TestCapVictimsKeepsFewestValid(t *testing.T) {
	_, f, _ := rig(noGC(), 64)
	full, sparse := controller.ChipID{Channel: 0, Way: 0}, controller.ChipID{Channel: 1, Way: 0}
	victims := []victim{
		{id: full, plane: 0, block: 0},
		{id: full, plane: 0, block: 1},
		{id: sparse, plane: 0, block: 0},
		{id: sparse, plane: 0, block: 1},
	}
	for i, valid := range []int32{8, 8, 1, 2} {
		v := victims[i]
		b := &f.planeAt(v.id, v.plane).blocks[v.block]
		b.validCount, b.state = valid, BlockErasing
	}
	f.alloc.freeBlocks = 4 // budget: 4 blocks x 8 pages / 2 = 16 pages
	kept := f.capVictims(append([]victim(nil), victims...))
	want := []victim{victims[0], victims[2], victims[3]}
	if len(kept) != len(want) {
		t.Fatalf("kept %v, want %v", kept, want)
	}
	for i := range want {
		if kept[i] != want[i] {
			t.Fatalf("kept %v, want %v (scan order)", kept, want)
		}
	}
	if st := f.planeAt(full, 0).blocks[1].state; st != BlockFull {
		t.Fatalf("dropped victim left in state %v, want BlockFull", st)
	}

	// A budget that covers every victim keeps the set as it is.
	f.alloc.freeBlocks = 8
	if kept := f.capVictims(append([]victim(nil), victims...)); len(kept) != len(victims) {
		t.Fatalf("unbound budget kept %d of %d victims", len(kept), len(victims))
	}
}
