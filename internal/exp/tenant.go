package exp

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// TenantPoint is one cell of the noisy-neighbor study: an architecture,
// a queue arbiter, and whether Spatial GC isolates collection traffic.
type TenantPoint struct {
	Arch    ssd.Arch
	Arbiter string
	SpGC    bool
}

// Label renders "pnSSD(+split)/dwrr/SpGC"-style cell names.
func (p TenantPoint) Label() string {
	gc := "PaGC"
	if p.SpGC {
		gc = "SpGC"
	}
	return fmt.Sprintf("%s/%s/%s", p.Arch, p.Arbiter, gc)
}

// TenantSweepPoints is the full matrix: both packetized architectures,
// every arbiter, SpGC on and off.
func TenantSweepPoints() []TenantPoint {
	var pts []TenantPoint
	for _, arch := range []ssd.Arch{ssd.ArchPSSD, ssd.ArchPnSSDSplit} {
		for _, arb := range host.ArbiterNames() {
			for _, spgc := range []bool{false, true} {
				pts = append(pts, TenantPoint{Arch: arch, Arbiter: arb, SpGC: spgc})
			}
		}
	}
	return pts
}

// TenantResult is one tenant's outcome at one sweep point.
type TenantResult struct {
	Name          string
	Requests      int64
	Mean          sim.Time
	P50           sim.Time
	P95           sim.Time
	P99           sim.Time
	P999          sim.Time
	KIOPS         float64
	SLOViolations int64
}

// TenantRow is one sweep point with its per-tenant results.
type TenantRow struct {
	Point   TenantPoint
	Tenants []TenantResult
}

// NoisyNeighborSpecs is the two-tenant workload of the sweep: a
// latency-sensitive read tenant (web serving, weight 4, 300 us read
// SLO) beside a bursty write-heavy neighbor (bulk updates at double
// intensity in 500 us-on / 1.5 ms-off phases, weight 1, burst-capped
// at 4 consecutive grants under dwrr). Footprints are partitioned, so
// interference flows only through shared queues, buses, and GC.
func NoisyNeighborSpecs(requests int) []workload.TenantSpec {
	return []workload.TenantSpec{
		{
			Name: "latency", Preset: "web-0", Requests: requests,
			Weight: 4, ReadSLO: 300 * sim.Microsecond, WriteSLO: 800 * sim.Microsecond,
		},
		{
			Name: "noisy", Preset: "update-0", Requests: requests,
			Intensity: 2, On: 500 * sim.Microsecond, Off: 1500 * sim.Microsecond,
			Weight: 1, Burst: 4,
		},
	}
}

// TenantSweep runs the noisy-neighbor interference study: the two
// NoisyNeighborSpecs tenants replay through a 16-deep multi-queue front
// end at every TenantSweepPoints cell, under natural GC pressure (the
// device is churned past its threshold before the run, like Fig 19).
// The per-tenant p99/p99.9 and SLO-violation columns show how much of
// the noisy tenant's burst latency each arbiter (and GC isolation)
// keeps away from the latency-sensitive tenant.
func TenantSweep(opt Options) []TenantRow {
	opt = opt.withDefaults()
	pts := TenantSweepPoints()
	return runner.MapDefault(len(pts), func(i int) TenantRow {
		return runTenantPoint(pts[i], opt)
	})
}

func runTenantPoint(p TenantPoint, opt Options) TenantRow {
	mode := ftl.GCParallel
	if p.SpGC {
		mode = ftl.GCSpatial
	}
	cfg := gcCfg(opt)
	cfg.FTL.GCMode = mode
	cfg.FTL.Policy = ftl.PCWD
	s := replayTenants(p.Arch, cfg, NoisyNeighborSpecs(opt.TraceRequests), p.Arbiter, opt, true)
	row := TenantRow{Point: p}
	for _, tm := range s.Frontend.Metrics().Tenants {
		h := tm.Combined()
		row.Tenants = append(row.Tenants, TenantResult{
			Name:          tm.Name,
			Requests:      tm.TotalRequests(),
			Mean:          h.Mean(),
			P50:           h.Percentile(50),
			P95:           h.Percentile(95),
			P99:           h.Percentile(99),
			P999:          h.Percentile(99.9),
			KIOPS:         tm.KIOPS(),
			SLOViolations: tm.SLOViolations(),
		})
	}
	return row
}
