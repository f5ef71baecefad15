package exp

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/workload"
)

// GCConfig pairs an architecture with a GC algorithm.
type GCConfig struct {
	Arch ssd.Arch
	Mode ftl.GCMode
}

// Label renders "pnSSD(SpGC)"-style names matching the paper's legends.
func (c GCConfig) Label() string {
	mode := map[ftl.GCMode]string{
		ftl.GCParallel:   "PaGC",
		ftl.GCPreemptive: "Preemptive",
		ftl.GCSpatial:    "SpGC",
	}[c.Mode]
	return fmt.Sprintf("%s(%s)", c.Arch, mode)
}

// Fig18Configs is the configuration set of Fig 18: the PaGC baseline and
// spatial GC applied across the architecture ladder.
var Fig18Configs = []GCConfig{
	{ssd.ArchBase, ftl.GCParallel},
	{ssd.ArchBase, ftl.GCSpatial},
	{ssd.ArchPSSD, ftl.GCSpatial},
	{ssd.ArchPnSSD, ftl.GCSpatial},
	{ssd.ArchPnSSDSplit, ftl.GCSpatial},
}

// Fig18Row is the synthetic GC-interference result for one configuration.
type Fig18Row struct {
	Config           GCConfig
	ReadLatency      sim.Time
	WriteLatency     sim.Time
	ReadImprovement  float64 // vs base+PaGC
	WriteImprovement float64
}

// Fig18 reproduces the synthetic interference study: random 64 KB reads
// (and separately writes) run closed-loop while garbage collection is
// continuously re-triggered, so every I/O contends with GC page copies.
// Spatial GC on pnSSD isolates GC onto the GC group's v-channels and
// shows the large gains the paper reports; on baseSSD the shared bus
// limits the benefit.
func Fig18(opt Options) []Fig18Row {
	opt = opt.withDefaults()
	cfg := gcCfg(opt)
	run := func(c GCConfig, p workload.Pattern) sim.Time {
		s := build(c.Arch, cfg, c.Mode, ftl.PCWD)
		warm(s, opt, true)
		gen := workload.Synthetic(p, s.Config.LogicalPages(), 4, opt.Seed)
		s.Host.RunClosedLoop(gen, 16, opt.SyntheticRequests)
		forceContinuousGC(s)
		s.Run()
		return s.Metrics().MeanLatency()
	}
	// Two independent runs (read, write) per configuration.
	lats := runner.MapDefault(len(Fig18Configs)*2, func(i int) sim.Time {
		c := Fig18Configs[i/2]
		p := workload.RandRead
		if i%2 == 1 {
			p = workload.RandWrite
		}
		return run(c, p)
	})
	rows := make([]Fig18Row, len(Fig18Configs))
	for i, c := range Fig18Configs {
		rows[i] = Fig18Row{
			Config:       c,
			ReadLatency:  lats[2*i],
			WriteLatency: lats[2*i+1],
		}
	}
	for i := range rows {
		rows[i].ReadImprovement = improvement(rows[0].ReadLatency, rows[i].ReadLatency)
		rows[i].WriteImprovement = improvement(rows[0].WriteLatency, rows[i].WriteLatency)
	}
	return rows
}

// Fig19Configs is the architecture × GC-algorithm matrix of Fig 19.
var Fig19Configs = []GCConfig{
	{ssd.ArchBase, ftl.GCParallel},
	{ssd.ArchBase, ftl.GCPreemptive},
	{ssd.ArchBase, ftl.GCSpatial},
	{ssd.ArchPSSD, ftl.GCParallel},
	{ssd.ArchPSSD, ftl.GCPreemptive},
	{ssd.ArchPSSD, ftl.GCSpatial},
	{ssd.ArchPnSSDSplit, ftl.GCParallel},
	{ssd.ArchPnSSDSplit, ftl.GCPreemptive},
	{ssd.ArchPnSSDSplit, ftl.GCSpatial},
}

// Fig19Row holds per-trace latency for every configuration, with GC
// running under natural write pressure (the device is warmed past its GC
// threshold, so collection overlaps the whole replay).
type Fig19Row struct {
	Trace       string
	Latency     map[string]sim.Time // by GCConfig.Label()
	Improvement map[string]float64  // vs base+PaGC
	GCStats     map[string]ftl.Stats
}

// Fig19 reproduces the trace-driven GC comparison of Fig 19.
func Fig19(opt Options) []Fig19Row {
	opt = opt.withDefaults()
	type point struct {
		lat sim.Time
		st  ftl.Stats
	}
	nc := len(Fig19Configs)
	pts := runner.MapDefault(len(opt.Traces)*nc, func(i int) point {
		trace, c := opt.Traces[i/nc], Fig19Configs[i%nc]
		m, st := replayTrace(c.Arch, gcCfg(opt), c.Mode, opt, true, trace)
		return point{lat: m.MeanLatency(), st: st}
	})
	rows := make([]Fig19Row, 0, len(opt.Traces))
	for ti, trace := range opt.Traces {
		row := Fig19Row{
			Trace:       trace,
			Latency:     make(map[string]sim.Time),
			Improvement: make(map[string]float64),
			GCStats:     make(map[string]ftl.Stats),
		}
		for ci, c := range Fig19Configs {
			row.Latency[c.Label()] = pts[ti*nc+ci].lat
			row.GCStats[c.Label()] = pts[ti*nc+ci].st
		}
		baseLabel := Fig19Configs[0].Label()
		for _, c := range Fig19Configs {
			row.Improvement[c.Label()] = improvement(row.Latency[baseLabel], row.Latency[c.Label()])
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig20aConfigs compares tail latency across the GC story's endpoints.
var Fig20aConfigs = []GCConfig{
	{ssd.ArchBase, ftl.GCParallel},
	{ssd.ArchBase, ftl.GCSpatial},
	{ssd.ArchPSSD, ftl.GCSpatial},
	{ssd.ArchPnSSDSplit, ftl.GCSpatial},
}

// Fig20aRow is the tail-latency distribution for one configuration on the
// RocksDB trace.
type Fig20aRow struct {
	Config GCConfig
	P50    sim.Time
	P90    sim.Time
	P99    sim.Time
	P999   sim.Time
	Max    sim.Time
	CDF    []stats.CDFPoint
}

// Fig20a reproduces the tail-latency comparison on the rocksdb-0 trace
// with GC active (the paper reports an 18.7x p99 reduction for
// pnSSD(SpGC) over the baseline).
func Fig20a(opt Options) []Fig20aRow {
	opt = opt.withDefaults()
	return runner.MapDefault(len(Fig20aConfigs), func(i int) Fig20aRow {
		c := Fig20aConfigs[i]
		s := build(c.Arch, gcCfg(opt), c.Mode, ftl.PCWD)
		replay(s, opt, true, "rocksdb-0")
		h := s.Metrics().Combined()
		return Fig20aRow{
			Config: c,
			P50:    h.Percentile(50),
			P90:    h.Percentile(90),
			P99:    h.Percentile(99),
			P999:   h.Percentile(99.9),
			Max:    h.Max(),
			CDF:    h.CDF(),
		}
	})
}

// Fig20bRow is the mean GC elapsed time for one configuration across all
// traces.
type Fig20bRow struct {
	Config      GCConfig
	MeanGCTime  sim.Time
	Rounds      int64
	PagesCopied int64
}

// Fig20b reproduces the GC execution time comparison: average elapsed
// time per GC round across the trace suite. Direct flash-to-flash copies
// halve the number of channel transfers, and the spatial split halves
// bus contention for the copies themselves.
func Fig20b(opt Options) []Fig20bRow {
	opt = opt.withDefaults()
	nt := len(opt.Traces)
	sts := runner.MapDefault(len(Fig20aConfigs)*nt, func(i int) ftl.Stats {
		c, trace := Fig20aConfigs[i/nt], opt.Traces[i%nt]
		_, st := replayTrace(c.Arch, gcCfg(opt), c.Mode, opt, true, trace)
		return st
	})
	rows := make([]Fig20bRow, len(Fig20aConfigs))
	for i, c := range Fig20aConfigs {
		rows[i].Config = c
		var total sim.Time
		var rounds, pages int64
		for ti := 0; ti < nt; ti++ {
			st := sts[i*nt+ti]
			total += st.GCTotalTime
			rounds += st.GCRounds
			pages += st.GCPagesCopied
		}
		if rounds > 0 {
			rows[i].MeanGCTime = total / sim.Time(rounds)
		}
		rows[i].Rounds = rounds
		rows[i].PagesCopied = pages
	}
	return rows
}
