package prop

import (
	"bytes"
	"testing"

	"repro/internal/controller"
)

// TestPropertyMappingZeroViolations crosses both mapping modes against
// generated configurations: each case must drain inside the liveness
// horizon with zero invariant violations (the fmmu cases run the full
// map ledger — coherence, versioning, writeback conservation), and its
// summary must be byte-identical between -parallel 1 and 4.
func TestPropertyMappingZeroViolations(t *testing.T) {
	base := Generate(31, 8)
	var cases []Case
	for i, mode := range []string{"flat", "fmmu"} {
		for j := 0; j < 4; j++ {
			c := base[i*4+j]
			c.Mapping = mode
			cases = append(cases, c)
		}
	}
	serial := RunAll(cases, 1)
	fanned := RunAll(cases, 4)
	for i, res := range serial {
		if res.Err != nil {
			t.Errorf("%v: %v", cases[i], res.Err)
			continue
		}
		if len(res.Violations) != 0 {
			t.Errorf("%v: %d violations: %v", cases[i], len(res.Violations), res.Violations)
		}
		if res.Checks == 0 {
			t.Errorf("%v: checker asserted nothing", cases[i])
		}
		if !bytes.Equal(res.Summary, fanned[i].Summary) || res.Checks != fanned[i].Checks {
			t.Errorf("%v: results differ between -parallel 1 and 4", cases[i])
		}
	}
}

// TestGenerateCoversMappingDimension keeps the generator honest: both
// mapping modes and at least three distinct cache sizes must appear in
// a modest sample, crossed with the scheduler dimension.
func TestGenerateCoversMappingDimension(t *testing.T) {
	modes := map[string]int{}
	sizes := map[int]bool{}
	crossSched := map[controller.SchedPolicy]bool{}
	for _, c := range Generate(3, 60) {
		modes[c.Mapping]++
		if c.Mapping == "fmmu" {
			sizes[c.MapCacheEntries] = true
			if c.Scheduler != controller.SchedFIFO {
				crossSched[c.Scheduler] = true
			}
		}
	}
	for _, mode := range []string{"flat", "fmmu"} {
		if modes[mode] == 0 {
			t.Fatalf("generator never drew mapping %q in 60 cases: %v", mode, modes)
		}
	}
	if len(sizes) < 3 {
		t.Fatalf("generator drew only %d distinct cache sizes: %v", len(sizes), sizes)
	}
	if len(crossSched) == 0 {
		t.Fatal("fmmu never crossed a non-FIFO scheduler")
	}
}
