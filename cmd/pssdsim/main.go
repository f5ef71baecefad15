// Command pssdsim runs one SSD simulation: pick an architecture, a
// workload (named preset, trace CSV file, or synthetic pattern), a GC
// mode, and get the latency/throughput report. -trace writes a Chrome
// trace-event JSON (open in Perfetto), -metrics-json a machine-
// readable run summary (with trace totals only when -trace is given
// too), and -check attaches the cross-layer invariant checker (page
// conservation, bus legality, leak detection at drain).
//
//	go run ./cmd/pssdsim -arch pnssd+split -preset rocksdb-0 -gc spgc
//	go run ./cmd/pssdsim -arch pssd -synthetic rand-read -outstanding 32
//	go run ./cmd/pssdsim -arch base -tracefile mytrace.csv
//	go run ./cmd/pssdsim -arch pnssd+split -gc spgc -check -trace out.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/ftl"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

var gcNames = map[string]ftl.GCMode{
	"none":       ftl.GCNone,
	"pagc":       ftl.GCParallel,
	"preemptive": ftl.GCPreemptive,
	"spgc":       ftl.GCSpatial,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole binary behind a testable seam: parse args, simulate,
// and print to stdout. The golden-output test drives it directly.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pssdsim", flag.ContinueOnError)
	archFlag := fs.String("arch", "pnssd+split", "architecture: base, nossd-pin, nossd-free, pssd, pnssd, pnssd+split")
	preset := fs.String("preset", "", "named workload preset (see -list)")
	traceFile := fs.String("tracefile", "", "replay a trace CSV (arrival_ps,op,lpn,pages)")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON to this file (open in Perfetto)")
	metricsOut := fs.String("metrics-json", "", "write the machine-readable run summary JSON to this file")
	synth := fs.String("synthetic", "", "closed-loop pattern: seq-read, seq-write, rand-read, rand-write")
	outstanding := fs.Int("outstanding", 16, "outstanding I/Os for synthetic runs")
	requests := fs.Int("requests", 2000, "request count")
	gcFlag := fs.String("gc", "none", "GC mode: none, pagc, preemptive, spgc")
	policy := fs.String("policy", "pcwd", "page allocation policy: pcwd, pwcd")
	seed := fs.Int64("seed", 1, "workload seed")
	full := fs.Bool("full", false, "full Table II geometry (slow); default is the scaled geometry")
	checkFlag := fs.Bool("check", false, "attach the invariant checker and verify the run at drain")
	sched := fs.String("sched", "fifo", "controller scheduling policy: fifo, conflict (Venice-style path reservation), ooo (Sprinkler-style die reordering)")
	mapping := fs.String("mapping", "flat", "FTL mapping mode: flat (whole map in DRAM), fmmu (on-flash map with a bounded cache)")
	mapcache := fs.Int("mapcache", 0, "with -mapping fmmu: map cache capacity in translation-page entries (0 = default 64)")
	list := fs.Bool("list", false, "list named traces and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, name := range workload.Names() {
			why, _ := workload.Describe(name)
			fmt.Fprintf(stdout, "%-12s %s\n", name, why)
		}
		return nil
	}

	var workloads []string
	for _, w := range []struct{ flag, val string }{{"-synthetic", *synth}, {"-tracefile", *traceFile}, {"-preset", *preset}} {
		if w.val != "" {
			workloads = append(workloads, w.flag)
		}
	}
	if len(workloads) > 1 {
		return fmt.Errorf("%s conflict: give one workload", strings.Join(workloads, " and "))
	}
	arch, err := ssd.ParseArch(*archFlag)
	if err != nil {
		return err
	}
	gc, ok := gcNames[strings.ToLower(*gcFlag)]
	if !ok {
		return fmt.Errorf("unknown GC mode %q", *gcFlag)
	}
	if *requests <= 0 {
		return fmt.Errorf("-requests must be positive, got %d", *requests)
	}
	if *outstanding <= 0 {
		return fmt.Errorf("-outstanding must be positive, got %d", *outstanding)
	}

	cfg := ssd.ScaledConfig()
	if *full {
		cfg = ssd.DefaultConfig()
	}
	cfg.FTL.GCMode = gc
	switch strings.ToLower(*policy) {
	case "pcwd":
		cfg.FTL.Policy = ftl.PCWD
	case "pwcd":
		cfg.FTL.Policy = ftl.PWCD
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}
	if gc != ftl.GCNone {
		cfg.LogicalUtilization = 0.75
	}
	if *traceOut != "" {
		cfg.Trace = &trace.Config{}
	}
	if *checkFlag {
		cfg.Check = &check.Config{}
	}
	if cfg.Scheduler, err = controller.ParseSchedPolicy(*sched); err != nil {
		return err
	}
	// A negative -mapcache is reported as such under either mapping.
	mapCfg := &ftl.MapConfig{Entries: *mapcache}
	if err := mapCfg.Validate(); err != nil {
		return err
	}
	switch strings.ToLower(*mapping) {
	case "flat":
		if *mapcache != 0 {
			return fmt.Errorf("-mapcache %d is used only with -mapping fmmu", *mapcache)
		}
	case "fmmu":
		cfg.FTL.Map = mapCfg
	default:
		return fmt.Errorf("unknown mapping mode %q (want flat or fmmu)", *mapping)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	// Resolve the workload before building the device, so a bad workload
	// flag or trace file fails before anything is printed.
	foot := cfg.LogicalPages()
	var pattern workload.Pattern
	var tr workload.Trace
	var desc string
	switch {
	case *synth != "":
		if pattern, err = workload.ParsePattern(*synth); err != nil {
			return err
		}
		desc = fmt.Sprintf("synthetic %s, %d outstanding, %d requests", pattern, *outstanding, *requests)
	case *traceFile != "":
		if tr, err = readTrace(*traceFile, foot); err != nil {
			return err
		}
		desc = fmt.Sprintf("trace file %s, %d requests", *traceFile, len(tr.Requests))
	default:
		name := *preset
		if name == "" {
			name = "rocksdb-0"
		}
		if tr, err = workload.Named(name, foot, *requests, *seed); err != nil {
			return err
		}
		reads, writes, frac := tr.Mix()
		desc = fmt.Sprintf("%s (%d reads / %d writes, %.0f%% read), duration %v",
			name, reads, writes, frac*100, tr.Duration())
	}

	s := ssd.New(arch, cfg)
	var util *stats.UtilMatrix
	if s.Tracer.Enabled() {
		util = s.AttachChannelUtil()
	}
	fmt.Fprintf(stdout, "architecture: %s (%s)\n", arch, arch.Describe())
	fmt.Fprintf(stdout, "device: %d chips, %d logical pages (%d MB), GC=%s, policy=%s\n",
		s.Grid.NumChips(), foot, foot*int64(cfg.Geometry.PageSize)/(1<<20), gc, cfg.FTL.Policy)
	if s.Sched != nil { // fifo leaves the fabric unwrapped, so this line only appears for non-default policies
		fmt.Fprintf(stdout, "scheduler: %s (window=%d, reorder bound=%d)\n",
			s.Sched.Policy(), s.Sched.Window(), s.Sched.ReorderBound())
	}
	if s.FTL.MapEnabled() { // flat runs carry no map unit, so this line only appears under -mapping fmmu
		fmt.Fprintf(stdout, "mapping: fmmu (%d translation pages, cache %d entries)\n",
			s.FTL.NumTranslationPages(), s.FTL.MapCacheEntries())
	}

	s.Host.Warmup(foot)
	fmt.Fprintf(stdout, "workload: %s\n", desc)
	if *synth != "" {
		s.Host.RunClosedLoop(workload.Synthetic(pattern, foot, 4, *seed), *outstanding, *requests)
	} else if _, err := s.Host.Replay(tr.Requests); err != nil {
		return fmt.Errorf("replay: %v", err)
	}

	// Drain plus an explicit verify so a violation surfaces as a clean
	// error instead of SSD.Run's panic.
	end := s.Drain()
	if s.Checker.Enabled() {
		if err := s.VerifyInvariants(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "invariants: %d checks, 0 violations\n", s.Checker.Checks())
	}
	if err := printReport(stdout, s, util, end); err != nil {
		return err
	}

	if *traceOut != "" {
		fh, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("create trace file: %v", err)
		}
		if err := s.Tracer.ExportChrome(fh); err != nil {
			return fmt.Errorf("write trace: %v", err)
		}
		fh.Close()
		fmt.Fprintf(stdout, "trace: %d events -> %s (open in https://ui.perfetto.dev)\n", s.Tracer.Events(), *traceOut)
	}
	if *metricsOut != "" {
		fh, err := os.Create(*metricsOut)
		if err != nil {
			return fmt.Errorf("create metrics file: %v", err)
		}
		if err := s.WriteSummaryJSON(fh); err != nil {
			return fmt.Errorf("write metrics: %v", err)
		}
		fh.Close()
		fmt.Fprintf(stdout, "metrics: %s\n", *metricsOut)
	}
	return nil
}

// readTrace loads a trace CSV and checks that it fits a device of foot
// logical pages.
func readTrace(path string, foot int64) (workload.Trace, error) {
	fh, err := os.Open(path)
	if err != nil {
		return workload.Trace{}, fmt.Errorf("open trace: %v", err)
	}
	defer fh.Close()
	tr, err := workload.ReadCSV(fh, path)
	if err != nil {
		return workload.Trace{}, fmt.Errorf("parse trace: %v", err)
	}
	if tr.Footprint > foot {
		return workload.Trace{}, fmt.Errorf("trace footprint %d exceeds device logical pages %d", tr.Footprint, foot)
	}
	return tr, nil
}

func printReport(stdout io.Writer, s *ssd.SSD, util *stats.UtilMatrix, end sim.Time) error {
	m := s.Metrics()
	comb := m.Combined()
	t := report.New("\nResults", "metric", "value")
	t.Add("simulated time", end.String())
	t.Add("requests", fmt.Sprint(m.TotalRequests()))
	t.Add("mean latency", comb.Mean().String())
	t.Add("read mean", m.Latency[stats.Read].Mean().String())
	t.Add("write mean", m.Latency[stats.Write].Mean().String())
	t.Add("p50 / p99 / p99.9", fmt.Sprintf("%v / %v / %v", comb.Percentile(50), comb.P99(), comb.Percentile(99.9)))
	t.Add("throughput", fmt.Sprintf("%.1f KIOPS, %.1f MB/s", m.KIOPS(), m.BandwidthMBps()))
	st := s.FTL.Stats()
	if st.GCRounds > 0 {
		t.Add("GC rounds", fmt.Sprint(st.GCRounds))
		t.Add("GC pages copied", fmt.Sprint(st.GCPagesCopied))
		t.Add("GC blocks erased", fmt.Sprint(st.GCBlocksErased))
		t.Add("GC total time", st.GCTotalTime.String())
	}
	if s.Sched != nil {
		deferred, reordered, forced := s.Sched.Counts()
		t.Add("sched deferred / reordered / forced", fmt.Sprintf("%d / %d / %d", deferred, reordered, forced))
		t.Add("sched peak queue", fmt.Sprint(s.Sched.MaxPending()))
	}
	if s.FTL.MapEnabled() {
		ms := s.FTL.MapStats()
		t.Add("map hits / misses", fmt.Sprintf("%d / %d (%.0f%% miss)", ms.Hits, ms.Misses, ms.MissRate()*100))
		t.Add("map fetches / writebacks", fmt.Sprintf("%d / %d", ms.Fetches, ms.Writebacks))
		if ms.CleanRounds > 0 {
			t.Add("map clean rounds / erases", fmt.Sprintf("%d / %d", ms.CleanRounds, ms.MapErases))
		}
	}
	t.Add("sysbus busy", s.Soc.SysBusBusy().String())
	t.Add("dram busy", s.Soc.DramBusy().String())
	fmt.Fprintln(stdout, t.String())
	printHeatmap(stdout, s, util, end)
	if err := s.FTL.CheckConsistency(); err != nil {
		return fmt.Errorf("FTL consistency check failed: %v", err)
	}
	fmt.Fprintln(stdout, "FTL mapping consistency: OK")
	return nil
}

// printHeatmap renders the per-bus utilization timelines as a shade-rune
// heat table (the textual Fig 3), one row per h- and v-channel in Buses
// order, padded to the windows covering [0, end). util is the Fig 3
// matrix, attached only to traced runs; nil prints nothing.
func printHeatmap(stdout io.Writer, s *ssd.SSD, util *stats.UtilMatrix, end sim.Time) {
	if util == nil {
		return
	}
	width := int((end + sim.SeriesWindow - 1) / sim.SeriesWindow)
	frac := func(busy sim.Time) float64 { return float64(busy) / float64(sim.SeriesWindow) }
	t := report.New(fmt.Sprintf("Bus utilization (%v windows)", sim.SeriesWindow), "bus", "busy", "timeline")
	for i, b := range s.Buses() {
		row := util.Recorders[i]
		busy := 0.0
		if end > 0 {
			busy = float64(row.Total()) / float64(end)
		}
		t.Add(b.Name, report.Pct(busy), report.Heat(row.Values(width, frac)))
	}
	if len(t.Rows) > 0 {
		fmt.Fprintln(stdout, t.String())
	}
}
