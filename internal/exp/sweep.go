package exp

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/controller"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/workload"
)

// SweepParams names the one-dimensional sensitivity sweeps Sweep runs,
// in the order `experiments -sweep all` prints them. The rebuild-throttle
// sweep has its own row type (RebuildRateSweep) and prints after them.
var SweepParams = []string{"outstanding", "busrate", "ways", "reqpages", "tenants", "sched", "mapcache"}

// SweepRow is one (architecture, x) point of a sensitivity sweep.
type SweepRow struct {
	Arch ssd.Arch
	// Workload is "rand-read", "rand-read/<scheduler|mapping>", or
	// "rocksdb-0/<arbiter>" for the tenant-count sweep.
	Workload string
	X        int
	Mean     sim.Time
	P99      sim.Time
	KIOPS    float64
}

// sweepPoint is one x of a closed-loop sweep: the edit it makes to the
// base device config, the outstanding depth, the request size in pages,
// and the suffix appended to the pattern's name in the Workload column.
type sweepPoint struct {
	x        int
	edit     func(*ssd.Config)
	outs     int
	reqPages int
	suffix   string
}

// closedLoopPoints lists the points of one closed-loop sweep. Every
// dimension but its own runs at 16 outstanding 4-page (64 KB) requests.
func closedLoopPoints(param string) []sweepPoint {
	var pts []sweepPoint
	switch param {
	case "outstanding":
		for _, o := range []int{1, 2, 4, 8, 16, 32, 64} {
			pts = append(pts, sweepPoint{x: o, outs: o, reqPages: 4})
		}
	case "busrate":
		for _, r := range []int{500, 750, 1000, 1500, 2000} {
			pts = append(pts, sweepPoint{x: r, edit: func(c *ssd.Config) { c.BusMTps = r }, outs: 16, reqPages: 4})
		}
	case "ways":
		for _, w := range []int{2, 4, 8, 16} {
			pts = append(pts, sweepPoint{x: w, edit: func(c *ssd.Config) { c.Ways = w }, outs: 16, reqPages: 4})
		}
	case "reqpages":
		for _, n := range []int{1, 2, 4, 8, 16} {
			pts = append(pts, sweepPoint{x: n, outs: 16, reqPages: n})
		}
	case "sched":
		// x is the policy's ordinal so the x column stays numeric.
		for i, pol := range controller.SchedPolicyNames() {
			pts = append(pts, sweepPoint{x: i, edit: func(c *ssd.Config) { c.Scheduler = pol }, outs: 16, reqPages: 4, suffix: "/" + pol})
		}
	case "mapcache":
		// x is the map-cache capacity in translation-page entries; 0 is
		// the flat-mapping baseline with no map unit at all.
		for _, n := range []int{0, 8, 16, 32, 64, 128} {
			mode := "fmmu"
			if n == 0 {
				mode = "flat"
			}
			pts = append(pts, sweepPoint{x: n, edit: func(c *ssd.Config) {
				c.Mapping = mode
				c.MapCacheEntries = n
			}, outs: 16, reqPages: 4, suffix: "/" + mode})
		}
	default:
		panic(fmt.Sprintf("exp: unknown sweep parameter %q", param))
	}
	return pts
}

// Sweep runs one SweepParams dimension over every architecture, rows in
// arch-major then x order. The closed-loop dimensions drive
// opt.SyntheticRequests random reads with GC off and PCWD placement.
// "tenants" instead replays 1 to 4 identical rocksdb-0 tenants (weights
// 1..N, opt.TraceRequests split evenly) through the multi-queue front
// end, once per arbiter.
func Sweep(param string, opt Options) []SweepRow {
	opt = opt.withDefaults()
	if param == "tenants" {
		return tenantCountSweep(opt)
	}
	pts := closedLoopPoints(param)
	return runner.MapDefault(len(ssd.Archs)*len(pts), func(i int) SweepRow {
		arch, pt := ssd.Archs[i/len(pts)], pts[i%len(pts)]
		cfg := *opt.Cfg
		if pt.edit != nil {
			pt.edit(&cfg)
		}
		m := runClosedLoop(arch, cfg, ftl.PCWD, workload.RandRead, pt.outs, pt.reqPages, opt)
		return sweepRow(arch, workload.RandRead.String()+pt.suffix, pt.x, m)
	})
}

func tenantCountSweep(opt Options) []SweepRow {
	arbs, counts := host.ArbiterNames(), []int{1, 2, 3, 4}
	n := len(ssd.Archs) * len(counts)
	return runner.MapDefault(len(arbs)*n, func(i int) SweepRow {
		arb, arch, count := arbs[i/n], ssd.Archs[i/len(counts)%len(ssd.Archs)], counts[i%len(counts)]
		specs := make([]workload.TenantSpec, count)
		for t := range specs {
			specs[t] = workload.TenantSpec{
				Name: fmt.Sprintf("t%d", t), Preset: "rocksdb-0",
				Requests: max(opt.TraceRequests/count, 1), Weight: 1 + t,
			}
		}
		cfg := *opt.Cfg
		cfg.FTL.GCMode = ftl.GCNone
		cfg.FTL.Policy = ftl.PCWD
		s := replayTenants(arch, cfg, specs, arb, opt, false)
		return sweepRow(arch, "rocksdb-0/"+arb, count, s.Metrics())
	})
}

func sweepRow(arch ssd.Arch, label string, x int, m *stats.IOMetrics) SweepRow {
	return SweepRow{Arch: arch, Workload: label, X: x, Mean: m.MeanLatency(), P99: m.Combined().P99(), KIOPS: m.KIOPS()}
}

// RebuildRateRow is one (architecture, rebuild throttle) point.
type RebuildRateRow struct {
	Arch          ssd.Arch
	Rate          int // rebuild throttle, pages/s
	Mean          sim.Time
	P99           sim.Time
	KIOPS         float64
	RebuildTime   sim.Time
	DegradedReads int64
	FailedReads   int64
}

// RebuildRateSweep replays rocksdb-0 on the ArraySweep array (SpGC) with
// device 0 killed a quarter into the trace, sweeping the rebuild
// throttle: faster rebuild shortens the re-protection window but steals
// more device bandwidth from foreground I/O.
func RebuildRateSweep(opt Options) []RebuildRateRow {
	opt = opt.withDefaults()
	rates := []int{50_000, 100_000, 200_000, 400_000, 800_000}
	return runner.MapDefault(len(ssd.Archs)*len(rates), func(i int) RebuildRateRow {
		arch, rate := ssd.Archs[i/len(rates)], rates[i%len(rates)]
		cfg := arrayCfg(opt, arch, ftl.GCSpatial)
		reqs := arrayTrace(cfg, opt)
		rebuildAtQuarter(&cfg, reqs, rate)
		res := array.Run(cfg, reqs, 1)
		if err := res.Err(); err != nil {
			panic(err)
		}
		m := res.Metrics
		return RebuildRateRow{
			Arch:          arch,
			Rate:          rate,
			Mean:          m.MeanLatency(),
			P99:           m.Combined().P99(),
			KIOPS:         m.KIOPS(),
			RebuildTime:   res.RebuildTime,
			DegradedReads: res.RAS.DegradedReads,
			FailedReads:   res.RAS.FailedReads,
		}
	})
}
