package exp

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ArrayScenario names one health state of the rack-scale sweep.
type ArrayScenario string

const (
	// ArrayHealthy runs with no failures.
	ArrayHealthy ArrayScenario = "healthy"
	// ArrayDegraded kills one device at t=0 with rebuild disabled, so
	// every read of its shards reconstructs for the whole run.
	ArrayDegraded ArrayScenario = "degraded"
	// ArrayRebuilding kills one device a quarter of the way through the
	// trace with the throttled rebuild scheduler on, so recovery traffic,
	// foreground I/O, and per-device GC contend.
	ArrayRebuilding ArrayScenario = "rebuilding"
)

// ArrayScenarios is the sweep order.
var ArrayScenarios = []ArrayScenario{ArrayHealthy, ArrayDegraded, ArrayRebuilding}

// ArraySweepRow is one (architecture, GC mode, scenario) point.
type ArraySweepRow struct {
	Arch     ssd.Arch
	GC       ftl.GCMode
	Scenario ArrayScenario

	Latency sim.Time
	P99     sim.Time
	KIOPS   float64

	RAS         *stats.ArrayRAS
	RebuildTime sim.Time
	// GCCopies sums GC page movement across all member devices — the
	// rebuild-interference signal SpGC vs PaGC is expected to move.
	GCCopies int64
	// OK reports a clean run: every request completed, zero failed host
	// reads, and (when the checker is attached) zero invariant violations.
	OK bool
}

// ArrayRebuildRate is the throttle used by the rebuilding scenario.
const ArrayRebuildRate = 200_000 // pages/s

// arrayCfg shrinks the per-device organization so a 7-device array
// simulates in seconds: the interconnect behaviour under study is
// per-device and unaffected by the smaller grid, and the array router
// only consumes device completion times.
func arrayCfg(opt Options, arch ssd.Arch, mode ftl.GCMode) array.Config {
	dc := *opt.Cfg
	dc.Channels, dc.Ways = 2, 2
	dc.Geometry.Planes = 2
	if dc.Geometry.BlocksPerPlane > 8 {
		dc.Geometry.BlocksPerPlane = 8
	}
	if dc.Geometry.PagesPerBlock > 16 {
		dc.Geometry.PagesPerBlock = 16
	}
	dc.LogicalUtilization = gcUtilization
	dc.FTL.GCMode = mode
	return array.Config{
		Arch:   arch,
		Device: dc,
		Data:   2, Parity: 1,
		Groups:        2,
		Spares:        1,
		Seed:          opt.Seed,
		ChurnFraction: churnFraction,
	}
}

// arrayTrace generates the rocksdb-0 trace every array run replays.
func arrayTrace(cfg array.Config, opt Options) []host.Request {
	tr, err := workload.Named("rocksdb-0", cfg.LogicalPages(), opt.TraceRequests, opt.Seed)
	if err != nil {
		panic(err)
	}
	return tr.Requests
}

// rebuildAtQuarter kills device 0 a quarter of the way through reqs and
// turns on the rebuild scheduler at the given throttle (pages/s).
func rebuildAtQuarter(cfg *array.Config, reqs []host.Request, rate int) {
	cfg.Failures = []fault.DeviceEvent{{Device: 0, At: reqs[len(reqs)/4].Arrival}}
	cfg.RebuildPagesPerSec = rate
}

// ArrayTelemetryDoc is the run document the -telemetry flag writes and
// cmd/report consumes: one rebuilding-scenario array run with its
// windowed time series, rebuild marks, and headline aggregates.
type ArrayTelemetryDoc struct {
	Name      string             `json:"name"`
	Arch      string             `json:"arch"`
	GC        string             `json:"gc"`
	Scenario  string             `json:"scenario"`
	Requests  int64              `json:"requests"`
	MeanMs    float64            `json:"mean_ms"`
	P99Ms     float64            `json:"p99_ms"`
	RebuildMs float64            `json:"rebuild_ms"`
	Telemetry *telemetry.Summary `json:"telemetry"`
}

// ArrayTelemetryRun runs the PR 6 headline scenario — pnSSD+split,
// SpGC, one device killed a quarter into the trace with the throttled
// rebuild on — with array-level telemetry enabled, and returns the run
// document. The time series shows host p99 per window roughly doubling
// inside the [rebuild-detect, rebuild-complete] mark window. The
// member devices fan out across the default worker pool; the telemetry
// is computed from joined completion times, so the document is
// byte-identical at any -parallel count.
func ArrayTelemetryRun(opt Options) ArrayTelemetryDoc {
	opt = opt.withDefaults()
	cfg := arrayCfg(opt, ssd.ArchPnSSDSplit, ftl.GCSpatial)
	reqs := arrayTrace(cfg, opt)
	rebuildAtQuarter(&cfg, reqs, ArrayRebuildRate)
	cfg.Telemetry = &telemetry.Config{}
	res := array.Run(cfg, reqs, runner.Default())
	if err := res.Err(); err != nil {
		panic(err)
	}
	m := res.Metrics
	return ArrayTelemetryDoc{
		Name:      "array-rebuild rocksdb-0",
		Arch:      ssd.ArchPnSSDSplit.String(),
		GC:        ftl.GCSpatial.String(),
		Scenario:  string(ArrayRebuilding),
		Requests:  m.TotalRequests(),
		MeanMs:    m.MeanLatency().Milliseconds(),
		P99Ms:     m.Combined().P99().Milliseconds(),
		RebuildMs: res.RebuildTime.Milliseconds(),
		Telemetry: res.Telemetry,
	}
}

// ArraySweep measures the erasure-coded array tier across
// {pnSSD, pnSSD+split} x {PaGC, SpGC} x {healthy, degraded, rebuilding}:
// host-visible mean and p99 latency, rebuild time, and the RAS ledger.
// The acceptance property rides along in OK — killing one device of an
// m+k group must never fail a host read.
func ArraySweep(opt Options) []ArraySweepRow {
	opt = opt.withDefaults()
	archs := []ssd.Arch{ssd.ArchPnSSD, ssd.ArchPnSSDSplit}
	modes := []ftl.GCMode{ftl.GCParallel, ftl.GCSpatial}
	n := len(archs) * len(modes) * len(ArrayScenarios)
	label := func(i int) string {
		arch := archs[i/(len(modes)*len(ArrayScenarios))]
		mode := modes[i/len(ArrayScenarios)%len(modes)]
		sc := ArrayScenarios[i%len(ArrayScenarios)]
		return fmt.Sprintf("array %v/%v/%v", arch, mode, sc)
	}
	return runner.MapLabeledDefault(n, label, func(i int) ArraySweepRow {
		arch := archs[i/(len(modes)*len(ArrayScenarios))]
		mode := modes[i/len(ArrayScenarios)%len(modes)]
		sc := ArrayScenarios[i%len(ArrayScenarios)]

		cfg := arrayCfg(opt, arch, mode)
		reqs := arrayTrace(cfg, opt)
		switch sc {
		case ArrayDegraded:
			cfg.Failures = []fault.DeviceEvent{{Device: 0, At: 0}}
		case ArrayRebuilding:
			rebuildAtQuarter(&cfg, reqs, ArrayRebuildRate)
		}

		// The sweep parallelizes across points; each point simulates its
		// member devices sequentially to keep the worker pool flat.
		res := array.Run(cfg, reqs, 1)
		var copies int64
		for _, s := range res.Devices {
			copies += s.FTL.Stats().GCPagesCopied
		}
		m := res.Metrics
		return ArraySweepRow{
			Arch:        arch,
			GC:          mode,
			Scenario:    sc,
			Latency:     m.MeanLatency(),
			P99:         m.Combined().P99(),
			KIOPS:       m.KIOPS(),
			RAS:         res.RAS,
			RebuildTime: res.RebuildTime,
			GCCopies:    copies,
			OK:          res.Err() == nil && res.RAS.FailedReads == 0,
		}
	})
}
