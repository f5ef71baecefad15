package exp

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// FmmuPoint is one cell of the map-cache study: a mapping mode, the map
// cache capacity in translation-page entries (0 for flat), and the
// workload's spatial skew.
type FmmuPoint struct {
	Mapping string
	Entries int
	Skew    string // "low" (uniform) or "high" (hot translation pages)
}

// Label renders "fmmu-24/high"-style cell names.
func (p FmmuPoint) Label() string {
	if p.Mapping == "flat" {
		return "flat/" + p.Skew
	}
	return fmt.Sprintf("fmmu-%d/%s", p.Entries, p.Skew)
}

// fmmuSkews are the two workload shapes of the study. Low skew reads
// uniformly, so the translation working set is the whole map; high skew
// concentrates reads in a few hot windows, so a handful of translation
// pages serve most lookups. One translation page covers PageSize/8
// LPNs, which is why region-level (not page-level) skew is what moves
// the map hit rate.
func fmmuSkews() map[string]workload.Params {
	return map[string]workload.Params{
		"low": {ReadRatio: 0.6, ZipfS: 0, ReqPages: 4,
			MeanGap: 90 * sim.Microsecond, Burst: 8},
		"high": {ReadRatio: 0.6, ZipfS: 1.4, HotRegions: 8, RegionPages: 64, ReqPages: 4,
			MeanGap: 90 * sim.Microsecond, Burst: 8},
	}
}

// FmmuSweepPoints builds the matrix for the given device configuration:
// per skew, a flat baseline plus fmmu at an eighth of the map, half the
// map, and double the map (effectively infinite — the convergence
// anchor). Sizes scale with the configured geometry so the quick and
// full variants stress the same regimes.
func FmmuSweepPoints(cfg ssd.Config) []FmmuPoint {
	numT := int((cfg.LogicalPages() + int64(cfg.Geometry.PageSize/8) - 1) / int64(cfg.Geometry.PageSize/8))
	sizes := []int{max(1, numT/8), max(2, numT/2), 2 * numT}
	var pts []FmmuPoint
	for _, skew := range []string{"low", "high"} {
		pts = append(pts, FmmuPoint{Mapping: "flat", Skew: skew})
		for _, n := range sizes {
			pts = append(pts, FmmuPoint{Mapping: "fmmu", Entries: n, Skew: skew})
		}
	}
	return pts
}

// FmmuRow is one cell's outcome: end-to-end latency and throughput next
// to the map unit's own counters, so the table shows the causal chain —
// smaller cache, higher miss rate, longer tail.
type FmmuRow struct {
	Point         FmmuPoint
	Mean          sim.Time
	P99           sim.Time
	KIOPS         float64
	MapLookups    int64
	MapMisses     int64
	MissRate      float64
	MapFetches    int64
	MapWritebacks int64
}

// FmmuSweep runs the map-cache-size × workload-skew ablation on
// pnSSD+split with GC active: the on-flash mapping study behind the
// -mapping knob. The flat rows are the no-map-IO baseline; the fmmu
// rows show demand map traffic competing with host IO on the same
// fabric, with the p99 tracking the miss rate.
func FmmuSweep(opt Options) []FmmuRow {
	opt = opt.withDefaults()
	cfg := gcCfg(opt)
	pts := FmmuSweepPoints(cfg)
	skews := fmmuSkews()
	return runner.MapDefault(len(pts), func(i int) FmmuRow {
		return runFmmuPoint(pts[i], skews[pts[i].Skew], cfg, opt)
	})
}

func runFmmuPoint(p FmmuPoint, params workload.Params, cfg ssd.Config, opt Options) FmmuRow {
	cfg.Mapping = p.Mapping
	cfg.MapCacheEntries = p.Entries
	cfg.FTL.GCMode = ftl.GCSpatial
	cfg.FTL.Policy = ftl.PCWD
	s := ssd.New(ssd.ArchPnSSDSplit, cfg)
	warm(s, opt, true)
	tr := workload.Generate("fmmu-"+p.Skew, params, s.Config.LogicalPages(), opt.TraceRequests, opt.Seed)
	s.Host.MustReplay(tr.Requests)
	s.Run()
	m := s.Metrics()
	lat := m.Combined()
	row := FmmuRow{
		Point: p,
		Mean:  lat.Mean(),
		P99:   lat.Percentile(99),
		KIOPS: m.KIOPS(),
	}
	if s.FTL.MapEnabled() {
		ms := s.FTL.MapStats()
		row.MapLookups = ms.Lookups
		row.MapMisses = ms.Misses
		row.MissRate = ms.MissRate()
		row.MapFetches = ms.Fetches
		row.MapWritebacks = ms.Writebacks
	}
	return row
}
