package exp

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// SchedPoint is one cell of the scheduling study: an architecture, a
// controller scheduling policy, and a GC mode.
type SchedPoint struct {
	Arch  ssd.Arch
	Sched string
	SpGC  bool
}

// Label renders "pSSD/conflict/SpGC"-style cell names.
func (p SchedPoint) Label() string {
	gc := "PaGC"
	if p.SpGC {
		gc = "SpGC"
	}
	return fmt.Sprintf("%s/%s/%s", p.Arch, p.Sched, gc)
}

// SchedSweepPoints is the headline matrix: {pSSD, pnSSD, pnSSD+split} ×
// {fifo, conflict, ooo} × {PaGC, SpGC}. pSSD is the wires-vs-scheduling
// protagonist: if a smarter scheduler over the conventional bus matched
// pnSSD/fifo, the paper's extra interconnect would be unnecessary.
func SchedSweepPoints() []SchedPoint {
	var pts []SchedPoint
	for _, arch := range []ssd.Arch{ssd.ArchPSSD, ssd.ArchPnSSD, ssd.ArchPnSSDSplit} {
		for _, sched := range []string{"fifo", "conflict", "ooo"} {
			for _, spgc := range []bool{false, true} {
				pts = append(pts, SchedPoint{Arch: arch, Sched: sched, SpGC: spgc})
			}
		}
	}
	return pts
}

// SchedRow is one cell's outcome: read latency, throughput, and the
// scheduler's own decision counters.
type SchedRow struct {
	Point     SchedPoint
	Mean      sim.Time
	P99       sim.Time
	KIOPS     float64
	BWMBps    float64
	GCCopied  int64
	Deferred  int64 // conflict: path reservations that had to wait
	Reordered int64 // ooo: out-of-arrival-order picks
}

// SchedSweep replays the GC-pressure workload (rocksdb-0 over a churned
// device, like Fig 19) at every SchedSweepPoints cell and reports
// latency, bandwidth, and scheduler activity — the experiment behind
// "does smarter scheduling over fewer wires close the gap to pnSSD?".
func SchedSweep(opt Options) []SchedRow {
	opt = opt.withDefaults()
	pts := SchedSweepPoints()
	return runner.MapDefault(len(pts), func(i int) SchedRow {
		return runSchedPoint(pts[i], opt)
	})
}

func runSchedPoint(p SchedPoint, opt Options) SchedRow {
	mode := ftl.GCParallel
	if p.SpGC {
		mode = ftl.GCSpatial
	}
	cfg := gcCfg(opt)
	cfg.Scheduler = p.Sched
	cfg.FTL.GCMode = mode
	cfg.FTL.Policy = ftl.PCWD
	s := ssd.New(p.Arch, cfg)
	replay(s, opt, true, "rocksdb-0")
	m := s.Metrics()
	lat := m.Combined()
	row := SchedRow{
		Point:    p,
		Mean:     lat.Mean(),
		P99:      lat.Percentile(99),
		KIOPS:    m.KIOPS(),
		BWMBps:   m.BandwidthMBps(),
		GCCopied: s.FTL.Stats().GCPagesCopied,
	}
	if s.Sched != nil {
		row.Deferred, row.Reordered, _ = s.Sched.Counts()
	}
	return row
}

// SchedNoisyRow is one cell of the scheduling noisy-neighbor study: the
// latency tenant's tail under a bursty neighbor, per policy.
type SchedNoisyRow struct {
	Point         SchedPoint
	LatencyP99    sim.Time
	LatencyP999   sim.Time
	SLOViolations int64
	NoisyP99      sim.Time
	Deferred      int64
	Reordered     int64
}

// SchedNoisy answers the study's second question — who wins under noisy
// neighbors? The NoisyNeighborSpecs pair replays through a dwrr
// front end with SpGC (the PR 5 winning combination) on pSSD and
// pnSSD+split, crossed with all three scheduling policies; the
// latency-sensitive tenant's p99/p99.9 and SLO misses are the score.
func SchedNoisy(opt Options) []SchedNoisyRow {
	opt = opt.withDefaults()
	var pts []SchedPoint
	for _, arch := range []ssd.Arch{ssd.ArchPSSD, ssd.ArchPnSSDSplit} {
		for _, sched := range []string{"fifo", "conflict", "ooo"} {
			pts = append(pts, SchedPoint{Arch: arch, Sched: sched, SpGC: true})
		}
	}
	return runner.MapDefault(len(pts), func(i int) SchedNoisyRow {
		return runSchedNoisyPoint(pts[i], opt)
	})
}

func runSchedNoisyPoint(p SchedPoint, opt Options) SchedNoisyRow {
	cfg := gcCfg(opt)
	cfg.Scheduler = p.Sched
	cfg.FTL.GCMode = ftl.GCSpatial
	cfg.FTL.Policy = ftl.PCWD
	s := replayTenants(p.Arch, cfg, NoisyNeighborSpecs(opt.TraceRequests), "dwrr", opt, true)
	row := SchedNoisyRow{Point: p}
	for _, tm := range s.Frontend.Metrics().Tenants {
		h := tm.Combined()
		switch tm.Name {
		case "latency":
			row.LatencyP99 = h.Percentile(99)
			row.LatencyP999 = h.Percentile(99.9)
			row.SLOViolations = tm.SLOViolations()
		case "noisy":
			row.NoisyP99 = h.Percentile(99)
		}
	}
	if s.Sched != nil {
		row.Deferred, row.Reordered, _ = s.Sched.Counts()
	}
	return row
}
