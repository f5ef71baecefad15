package ssd

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/controller"
	"repro/internal/flash"
	"repro/internal/ftl"
)

// programmedPages counts the pages of s's chips in the programmed state.
func programmedPages(s *SSD) int64 {
	var n int64
	geo := s.Config.Geometry
	s.Grid.ForEach(func(_ controller.ChipID, c *flash.Chip) {
		for pl := 0; pl < geo.Planes; pl++ {
			for b := 0; b < geo.BlocksPerPlane; b++ {
				for p := 0; p < geo.PagesPerBlock; p++ {
					if c.PageStateAt(flash.PPA{Plane: pl, Block: b, Page: p}) == flash.PageProgrammed {
						n++
					}
				}
			}
		}
	})
	return n
}

// TestPrecondition pins the warm-up recipe on the -quick geometry (the
// scaled device with 8 blocks of 16 pages per plane) at the GC and the
// default utilization: it programs the footprint plus exactly
// min(⌊foot/2⌋, (raw−foot)/2) churned pages at churn 0.5, the churned
// LPNs are ChurnLPNs' for the seed and hold version 1, every other LPN
// holds version 0, churn 0 churns nothing, and the FTL stays consistent.
func TestPrecondition(t *testing.T) {
	for _, util := range []float64{0.75, 0.875} {
		t.Run(fmt.Sprint(util), func(t *testing.T) {
			cfg := ScaledConfig()
			cfg.Geometry.BlocksPerPlane, cfg.Geometry.PagesPerBlock = 8, 16
			cfg.LogicalUtilization = util
			foot, raw := cfg.LogicalPages(), cfg.RawPages()

			lpns := cfg.ChurnLPNs(0.5, 3)
			if want := min(foot/2, (raw-foot)/2); int64(len(lpns)) != want {
				t.Fatalf("ChurnLPNs drew %d LPNs, want min(%d, %d)", len(lpns), foot/2, (raw-foot)/2)
			}
			if !slices.Equal(lpns, cfg.ChurnLPNs(0.5, 3)) {
				t.Fatal("ChurnLPNs drew different LPNs for the same seed")
			}
			if slices.Equal(lpns, cfg.ChurnLPNs(0.5, 4)) {
				t.Fatal("ChurnLPNs drew the same LPNs for seeds 3 and 4")
			}
			if got := cfg.ChurnLPNs(0, 3); len(got) != 0 {
				t.Fatalf("churn 0 drew %d LPNs", len(got))
			}

			s := New(ArchBase, cfg)
			s.Precondition(0.5, 3)
			if got, want := programmedPages(s), foot+int64(len(lpns)); got != want {
				t.Fatalf("%d pages programmed, want footprint %d + churn %d", got, foot, len(lpns))
			}
			churned := make(map[int64]bool, len(lpns))
			for _, lpn := range lpns {
				churned[lpn] = true
			}
			for lpn := int64(0); lpn < foot; lpn++ {
				want := ftl.TokenFor(lpn, 0)
				if churned[lpn] {
					want = ftl.TokenFor(lpn, 1)
				}
				if got, ok := s.FTL.Content(lpn); !ok || got != want {
					t.Fatalf("LPN %d holds %#x (ok=%v), want %#x", lpn, got, ok, want)
				}
			}
			if err := s.FTL.CheckConsistency(); err != nil {
				t.Fatal(err)
			}

			plain := New(ArchBase, cfg)
			plain.Precondition(0, 3)
			if got := programmedPages(plain); got != foot {
				t.Fatalf("churn 0 programmed %d pages, want the footprint %d", got, foot)
			}
			if err := plain.FTL.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
