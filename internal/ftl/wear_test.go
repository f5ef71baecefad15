package ftl

import (
	"math/rand"
	"testing"

	"repro/internal/controller"
	"repro/internal/flash"
	"repro/internal/sim"
)

func TestWearStatsEmptyDevice(t *testing.T) {
	_, f, _ := rig(noGC(), 256)
	ws := f.Wear()
	if ws.MinErase != 0 || ws.MaxErase != 0 || ws.MeanErase != 0 {
		t.Fatalf("fresh device wear = %+v", ws)
	}
	if ws.GroupWearGap() != 0 {
		t.Fatal("fresh device has a group wear gap")
	}
}

// churnMode runs sustained overwrite churn under the given GC mode and
// returns the wear statistics.
func churnWear(t *testing.T, mode GCMode, rounds int) WearStats {
	t.Helper()
	e := sim.NewEngine()
	g := controller.NewGrid(e, 4, 4, smallGeo(), flash.ULLTiming())
	soc := controller.NewSoc(e, 8000, 8000)
	fab := controller.NewOmnibusFabric(e, "pnssd", g, soc, smallGeo().PageSize, 8, 8, 1000, true, false)
	cfg := DefaultConfig()
	cfg.GCMode = mode
	cfg.GCThreshold = 0.3
	f := New(e, fab, cfg, 800) // 1024 raw pages, ~78% utilization
	for lpn := int64(0); lpn < 800; lpn++ {
		f.Install(lpn, TokenFor(lpn, 0))
	}
	rng := rand.New(rand.NewSource(11))
	version := map[int64]int64{}
	for i := 0; i < rounds; i++ {
		lpn := rng.Int63n(800)
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
	return f.Wear()
}

func TestSpatialGCSwapLevelsWearAcrossGroups(t *testing.T) {
	ws := churnWear(t, GCSpatial, 1500)
	if ws.MaxErase == 0 {
		t.Fatal("churn produced no erases")
	}
	// With group swapping, the two way-halves must see similar wear: the
	// gap between group means stays well below total wear.
	if gap := ws.GroupWearGap(); gap > 0.5 {
		t.Fatalf("SpGC group wear gap = %.2f (per-way means %v)", gap, ws.PerWay)
	}
}

func TestWearAccumulatesWithChurn(t *testing.T) {
	light := churnWear(t, GCParallel, 300)
	heavy := churnWear(t, GCParallel, 1500)
	if heavy.MeanErase <= light.MeanErase {
		t.Fatalf("mean wear did not grow with churn: %.2f vs %.2f", heavy.MeanErase, light.MeanErase)
	}
	if heavy.MaxErase < heavy.MinErase {
		t.Fatal("max below min")
	}
}

func TestGroupWearGapArithmetic(t *testing.T) {
	ws := WearStats{PerWay: []float64{2, 2, 0, 0}}
	if gap := ws.GroupWearGap(); gap != 1.0 {
		t.Fatalf("one-sided wear gap = %v, want 1.0", gap)
	}
	ws = WearStats{PerWay: []float64{3, 3, 3, 3}}
	if gap := ws.GroupWearGap(); gap != 0 {
		t.Fatalf("level wear gap = %v, want 0", gap)
	}
	ws = WearStats{PerWay: []float64{1}}
	if ws.GroupWearGap() != 0 {
		t.Fatal("single-way gap should be 0")
	}
}
