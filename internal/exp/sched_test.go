package exp

import (
	"testing"

	"repro/internal/controller"
	"repro/internal/ssd"
)

// TestSchedSweepUnderChecker runs the scheduling study's headline matrix
// with the invariant checker attached — including the new reservation
// ledger and reorder-window rules, so any scheduler bug panics the run —
// and asserts the structural shape the sched figure depends on.
func TestSchedSweepUnderChecker(t *testing.T) {
	opt := checkedOpts()
	rows := SchedSweep(opt)
	if want := 3 * 3 * 2; len(rows) != want { // archs x policies x GC modes
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	seen := map[string]bool{}
	var conflictDeferred, oooReordered int64
	for _, r := range rows {
		label := r.Point.Label()
		if seen[label] {
			t.Fatalf("%s appears twice", label)
		}
		seen[label] = true
		if r.Mean <= 0 || r.P99 < r.Mean/2 || r.KIOPS <= 0 || r.BWMBps <= 0 {
			t.Errorf("%s: implausible metrics mean=%v p99=%v kiops=%.1f bw=%.1f",
				label, r.Mean, r.P99, r.KIOPS, r.BWMBps)
		}
		if r.GCCopied == 0 {
			t.Errorf("%s: the GC-pressure workload never copied a page", label)
		}
		switch r.Point.Sched {
		case controller.SchedFIFO:
			if r.Deferred != 0 || r.Reordered != 0 {
				t.Errorf("%s: fifo reported scheduler activity %d/%d", label, r.Deferred, r.Reordered)
			}
		case controller.SchedConflict:
			conflictDeferred += r.Deferred
		case controller.SchedOOO:
			oooReordered += r.Reordered
		}
	}
	if !seen[SchedPoint{Arch: ssd.ArchPnSSDSplit, Sched: controller.SchedConflict, SpGC: true}.Label()] {
		t.Fatal("matrix is missing the pnSSD(+split)/conflict/SpGC cell")
	}
	if conflictDeferred == 0 {
		t.Error("conflict policy never deferred a path across the whole matrix")
	}
	if oooReordered == 0 {
		t.Error("ooo policy never reordered across the whole matrix")
	}
}

// TestSchedNoisyUnderChecker runs the noisy-neighbor half of the study
// under the checker and pins its shape: both tenants report tails in
// every cell, and the fifo cells stay scheduler-inert.
func TestSchedNoisyUnderChecker(t *testing.T) {
	opt := checkedOpts()
	rows := SchedNoisy(opt)
	if want := 2 * 3; len(rows) != want { // {pSSD, pnSSD+split} x policies
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, r := range rows {
		label := r.Point.Label()
		if !r.Point.SpGC {
			t.Fatalf("%s: noisy study must run SpGC", label)
		}
		if r.LatencyP99 <= 0 || r.LatencyP999 < r.LatencyP99 || r.NoisyP99 <= 0 {
			t.Errorf("%s: implausible tails p99=%v p99.9=%v noisy=%v",
				label, r.LatencyP99, r.LatencyP999, r.NoisyP99)
		}
		if r.Point.Sched == controller.SchedFIFO && (r.Deferred != 0 || r.Reordered != 0) {
			t.Errorf("%s: fifo reported scheduler activity", label)
		}
	}
}
