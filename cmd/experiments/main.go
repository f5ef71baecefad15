// Command experiments reproduces every table and figure of the paper's
// evaluation. With no flags it runs the full suite; -fig / -table select
// individual artifacts, -quick shrinks run sizes for a fast smoke pass,
// and -csv switches output to CSV.
//
// Independent configuration runs inside each figure fan out across
// -parallel workers (default: GOMAXPROCS); results are reassembled in
// submission order, so output is byte-identical at any worker count and
// -parallel 1 restores fully sequential execution. -cpuprofile /
// -memprofile write pprof profiles for performance work.
//
//	go run ./cmd/experiments -fig 14
//	go run ./cmd/experiments -table 2
//	go run ./cmd/experiments -quick
//	go run ./cmd/experiments -quick -parallel 8 -csv
//	go run ./cmd/experiments -fig 19 -cpuprofile cpu.pprof
//	go run ./cmd/experiments -quick -trace out.json -metrics-json run.json
//
// -trace / -metrics-json switch to a single instrumented GC-heavy run
// (pnSSD+split with SpGC) and write the Chrome trace-event JSON and the
// machine-readable run summary instead of the evaluation tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/check"
	"repro/internal/exp"
	"repro/internal/ftl"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
)

func main() {
	fig := flag.String("fig", "", "figure to reproduce: 1,3,4,6,8,14,15,16,17,18,19,20a,20b,contention,tenant,array,sched,fmmu (empty = all)")
	table := flag.String("table", "", "table to print: 1,2,3")
	ablation := flag.String("ablation", "", "ablation study: vwidth, routing, ctrl-latency, gc-group, organization, ecc, victim, all")
	faultExp := flag.String("fault", "", "fault/RAS experiment: sweep (fault-rate x architecture), degraded (v-channel kill + grant drops), all")
	quick := flag.Bool("quick", false, "small runs for a fast smoke pass")
	checkFlag := flag.Bool("check", false, "attach the invariant checker to every run (panics on violation)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	seed := flag.Int64("seed", 1, "workload seed")
	reqs := flag.Int("requests", 0, "override trace request count")
	traceOut := flag.String("trace", "", "run one instrumented GC-heavy run and write a Chrome trace-event JSON to this file")
	metricsOut := flag.String("metrics-json", "", "run one instrumented GC-heavy run and write the run-summary JSON to this file")
	telemetryOut := flag.String("telemetry", "", "with -fig array: run the rebuilding scenario with telemetry enabled and write the run-document JSON to this file (render with cmd/report)")
	progress := flag.Bool("progress", false, "print completed-jobs / event-rate / ETA lines to stderr while sweeps run")
	parallel := flag.Int("parallel", runner.Default(), "worker count for independent simulation runs (1 = sequential)")
	cpuProf := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()
	if *reqs < 0 {
		fmt.Fprintf(os.Stderr, "-requests must not be negative, got %d\n", *reqs)
		os.Exit(2)
	}

	runner.SetDefault(*parallel)
	if *progress {
		runner.EnableProgress(os.Stderr, sim.EventsFiredTotal)
	}
	stop, err := runner.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stop()

	opt := exp.Options{Seed: *seed}
	if *quick {
		opt = exp.Quick()
		opt.Seed = *seed
	}
	if *reqs > 0 {
		opt.TraceRequests = *reqs
	}
	if *checkFlag {
		if opt.Cfg == nil {
			c := ssd.ScaledConfig()
			opt.Cfg = &c
		}
		opt.Cfg.Check = &check.Config{}
	}

	if *traceOut != "" || *metricsOut != "" {
		runTraced(opt, *traceOut, *metricsOut)
		return
	}

	if *telemetryOut != "" {
		if *fig != "array" {
			fmt.Fprintln(os.Stderr, "-telemetry requires -fig array")
			os.Exit(2)
		}
		writeArrayTelemetry(opt, *telemetryOut)
		return
	}

	emit := func(t *report.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}

	runners := map[string]func(exp.Options, func(*report.Table)){
		"1":          fig1,
		"3":          fig3,
		"4":          fig4,
		"6":          fig6,
		"8":          fig8,
		"14":         fig14and15,
		"15":         fig14and15,
		"16":         fig16,
		"17":         fig17,
		"18":         fig18,
		"19":         fig19,
		"20a":        fig20a,
		"20b":        fig20b,
		"contention": figContention,
		"tenant":     figTenant,
		"array":      figArray,
		"sched":      figSched,
		"fmmu":       figFmmu,
	}
	tables := map[string]func(exp.Options, func(*report.Table)){
		"1": table1,
		"2": table2,
		"3": table3,
	}

	switch {
	case *faultExp != "":
		runFaultExperiments(*faultExp, opt, emit)
	case *ablation != "":
		runAblations(*ablation, opt, emit)
	case *table != "":
		fn, ok := tables[*table]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
			os.Exit(2)
		}
		fn(opt, emit)
	case *fig != "":
		fn, ok := runners[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
			os.Exit(2)
		}
		fn(opt, emit)
	default:
		defaultSuite(opt, emit)
	}
}

// defaultSuite renders what an invocation without a selector prints.
func defaultSuite(opt exp.Options, emit func(*report.Table)) {
	for _, fn := range []func(exp.Options, func(*report.Table)){
		table1, table2, table3, fig1, fig3, fig4, fig6, fig8, fig14and15,
		fig16, fig17, fig18, fig19, fig20a, fig20b, figTenant,
	} {
		fn(opt, emit)
	}
}

// writeArrayTelemetry runs the rebuilding array scenario with telemetry
// enabled and writes the run-document JSON for cmd/report.
func writeArrayTelemetry(opt exp.Options, path string) {
	doc := exp.ArrayTelemetryRun(opt)
	fh, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "create %s: %v\n", path, err)
		os.Exit(1)
	}
	defer fh.Close()
	enc := json.NewEncoder(fh)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("telemetry: %s (%s/%s rebuilding, %d requests, p99 %.2fms, rebuild %.1fms)\n",
		path, doc.Arch, doc.GC, doc.Requests, doc.P99Ms, doc.RebuildMs)
}

// runTraced performs one instrumented GC-heavy run (pnSSD+split, SpGC,
// rocksdb-0) and writes the requested trace/summary files. Either path
// may be empty.
func runTraced(opt exp.Options, traceOut, metricsOut string) {
	open := func(path string) *os.File {
		if path == "" {
			return nil
		}
		fh, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", path, err)
			os.Exit(1)
		}
		return fh
	}
	tw, mw := open(traceOut), open(metricsOut)
	var traceW, metricsW io.Writer
	if tw != nil {
		traceW = tw
	}
	if mw != nil {
		metricsW = mw
	}
	m, err := exp.TracedRun(opt, ssd.ArchPnSSDSplit, ftl.GCSpatial, "rocksdb-0", traceW, metricsW)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traced run: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("traced run: pnssd+split / spgc / rocksdb-0, %d requests, mean latency %v\n",
		m.TotalRequests(), m.MeanLatency())
	if tw != nil {
		tw.Close()
		fmt.Printf("trace: %s (open in https://ui.perfetto.dev)\n", traceOut)
	}
	if mw != nil {
		mw.Close()
		fmt.Printf("metrics: %s\n", metricsOut)
	}
}

func fig1(_ exp.Options, emit func(*report.Table)) {
	chip, busTrend := exp.Fig1()
	t := report.New("Fig 1(a): flash memory chip I/O bandwidth trend", "year", "MB/s", "product")
	for _, p := range chip {
		t.Add(fmt.Sprint(p.Year), report.F1(p.MBps), p.Label)
	}
	emit(t)
	t = report.New("Fig 1(b): flash memory bus bandwidth trend", "year", "MB/s", "interface")
	for _, p := range busTrend {
		t.Add(fmt.Sprint(p.Year), report.F1(p.MBps), p.Label)
	}
	emit(t)
}

func fig3(opt exp.Options, emit func(*report.Table)) {
	res := exp.Fig3(opt)
	heat := func(title string, rows [][]float64, imbalance float64) {
		t := report.New(fmt.Sprintf("%s on %s (imbalance index %.2f; one column per %.0fus window)",
			title, res.Trace, imbalance, sim.SeriesWindow.Microseconds()), "ch", "utilization over time")
		for ch, row := range rows {
			t.Add(fmt.Sprint(ch), report.Heat(row))
		}
		emit(t)
	}
	heat("Fig 3(a): READ channel utilization", res.ReadRows, res.ReadImbalance)
	heat("Fig 3(b): WRITE channel utilization", res.WriteRows, res.WriteImbalance)
}

func fig4(opt exp.Options, emit func(*report.Table)) {
	rows := exp.Fig4(opt)
	t := report.New("Fig 4: I/O performance gain from raising flash channel bandwidth (baseSSD)",
		"trace", "1.25x", "1.5x", "2.0x")
	var sum float64
	for _, r := range rows {
		t.Add(r.Trace, report.X(r.Speedup[1.25]), report.X(r.Speedup[1.5]), report.X(r.Speedup[2.0]))
		sum += r.Speedup[2.0]
	}
	t.Add("average", "", "", report.X(sum/float64(len(rows))))
	emit(t)
}

func fig6(opt exp.Options, emit func(*report.Table)) {
	cfg := ssd.DefaultConfig()
	if opt.Cfg != nil {
		cfg = *opt.Cfg
	}
	res := exp.Fig6(cfg)
	t := report.New("Fig 6: READ transaction timing, conventional vs packetized (one 16 KB page)",
		"phase", "conventional", "packetized (16-bit)")
	for i := range res.Conventional {
		t.Add(res.Conventional[i].Phase, res.Conventional[i].Dur.String(), "")
	}
	for i := range res.Packetized {
		t.Add(res.Packetized[i].Phase, "", res.Packetized[i].Dur.String())
	}
	t.Add("TOTAL", res.ConvTotal.String(), res.PktTotal.String())
	emit(t)
}

func fig8(_ exp.Options, emit func(*report.Table)) {
	res := exp.Fig8()
	t := report.New("Fig 8: packet format overhead", "quantity", "value")
	t.Add("control header reserved bits", report.Pct(res.ControlHeaderOverhead))
	t.Add("data header reserved bits", report.Pct(res.DataHeaderOverhead))
	t.Add("read control packet", fmt.Sprintf("%d flits", res.ControlPacketFlits))
	emit(t)
	t = report.New("Fig 8 (cont): total wire overhead vs payload size", "payload B", "wire flits", "overhead")
	for _, r := range res.Rows {
		t.Add(fmt.Sprint(r.PayloadBytes), fmt.Sprint(r.WireFlits), report.Pct(r.Overhead))
	}
	emit(t)
}

func fig14and15(opt exp.Options, emit func(*report.Table)) {
	rows := exp.Fig14(opt)
	t := report.New("Fig 14: average I/O latency improvement vs baseSSD (GC off)", firstCol(rows)...)
	for _, r := range rows {
		cells := []string{r.Trace}
		for _, a := range ssd.Archs {
			cells = append(cells, report.Pct(r.Improvement[a]))
		}
		t.Add(cells...)
	}
	mean := exp.MeanImprovement(rows)
	cells := []string{"geomean"}
	for _, a := range ssd.Archs {
		cells = append(cells, report.Pct(mean[a]))
	}
	t.Add(cells...)
	emit(t)

	t = report.New("Fig 15: throughput (KIOPS)", firstCol(rows)...)
	for _, r := range rows {
		cells := []string{r.Trace}
		for _, a := range ssd.Archs {
			cells = append(cells, report.F1(r.KIOPS[a]))
		}
		t.Add(cells...)
	}
	emit(t)
}

func firstCol(_ []exp.Fig14Row) []string {
	heads := []string{"trace"}
	for _, a := range ssd.Archs {
		heads = append(heads, a.String())
	}
	return heads
}

func sweepTable(title string, rows []exp.Fig16Row, emit func(*report.Table)) {
	byPattern := map[string][]exp.Fig16Row{}
	var patterns []string
	for _, r := range rows {
		key := r.Pattern.String()
		if _, seen := byPattern[key]; !seen {
			patterns = append(patterns, key)
		}
		byPattern[key] = append(byPattern[key], r)
	}
	sort.Strings(patterns)
	for _, p := range patterns {
		group := byPattern[p]
		heads := []string{"arch \\ outstanding"}
		for _, pt := range group[0].Points {
			heads = append(heads, fmt.Sprint(pt.Outstanding))
		}
		t := report.New(fmt.Sprintf("%s — %s (mean latency)", title, p), heads...)
		for _, r := range group {
			cells := []string{r.Arch.String()}
			for _, pt := range r.Points {
				cells = append(cells, pt.Latency.String())
			}
			t.Add(cells...)
		}
		emit(t)
	}
}

func fig16(opt exp.Options, emit func(*report.Table)) {
	sweepTable("Fig 16: synthetic sweep, PCWD allocation", exp.Fig16(opt), emit)
}

func fig17(opt exp.Options, emit func(*report.Table)) {
	sweepTable("Fig 17: synthetic sweep, PWCD allocation", exp.Fig17(opt), emit)
}

func fig18(opt exp.Options, emit func(*report.Table)) {
	rows := exp.Fig18(opt)
	t := report.New("Fig 18: I/O performance during GC, normalized to baseSSD(PaGC)",
		"config", "read latency", "read improvement", "write latency", "write improvement")
	for _, r := range rows {
		t.Add(r.Config.Label(), r.ReadLatency.String(), report.Pct(r.ReadImprovement),
			r.WriteLatency.String(), report.Pct(r.WriteImprovement))
	}
	emit(t)
}

func fig19(opt exp.Options, emit func(*report.Table)) {
	rows := exp.Fig19(opt)
	heads := []string{"trace"}
	for _, c := range exp.Fig19Configs {
		heads = append(heads, c.Label())
	}
	t := report.New("Fig 19: average I/O latency improvement with GC active, vs baseSSD(PaGC)", heads...)
	for _, r := range rows {
		cells := []string{r.Trace}
		for _, c := range exp.Fig19Configs {
			cells = append(cells, report.Pct(r.Improvement[c.Label()]))
		}
		t.Add(cells...)
	}
	emit(t)
}

func fig20a(opt exp.Options, emit func(*report.Table)) {
	rows := exp.Fig20a(opt)
	t := report.New("Fig 20(a): tail latency on rocksdb-0 with GC active",
		"config", "p50", "p90", "p99", "p99.9", "max")
	for _, r := range rows {
		t.Add(r.Config.Label(), r.P50.String(), r.P90.String(), r.P99.String(), r.P999.String(), r.Max.String())
	}
	emit(t)
}

func fig20b(opt exp.Options, emit func(*report.Table)) {
	rows := exp.Fig20b(opt)
	t := report.New("Fig 20(b): garbage collection execution time",
		"config", "mean GC round", "rounds", "pages copied")
	for _, r := range rows {
		t.Add(r.Config.Label(), r.MeanGCTime.String(), fmt.Sprint(r.Rounds), fmt.Sprint(r.PagesCopied))
	}
	emit(t)
}

func table1(_ exp.Options, emit func(*report.Table)) {
	t := report.New("Table I: ONFi flash interface signals", "symbol", "type", "pins", "description")
	for _, r := range exp.TableI() {
		t.Add(r.Symbol, r.Type, fmt.Sprint(r.Pins), r.Description)
	}
	emit(t)
}

func table2(opt exp.Options, emit func(*report.Table)) {
	cfg := ssd.DefaultConfig()
	if opt.Cfg != nil {
		cfg = *opt.Cfg
	}
	g := cfg.Geometry
	t := report.New("Table II: simulation parameters", "parameter", "value")
	t.Add("organization", fmt.Sprintf("%d channels, %d ways, 1 die, %d planes, %d blocks, %d pages",
		cfg.Channels, cfg.Ways, g.Planes, g.BlocksPerPlane, g.PagesPerBlock))
	t.Add("page size", fmt.Sprintf("%d KB", g.PageSize/1024))
	t.Add("baseline flash bus", fmt.Sprintf("%d MT/s, 8 bits", cfg.BusMTps))
	t.Add("pSSD flash bus", fmt.Sprintf("%d MT/s, 16 bits", cfg.BusMTps))
	t.Add("pnSSD v-channels", fmt.Sprintf("%d, 8 bits each", cfg.Ways))
	t.Add("flash timing", fmt.Sprintf("read=%v write=%v erase=%v", cfg.Timing.Read, cfg.Timing.Program, cfg.Timing.Erase))
	t.Add("logical utilization", report.F2(cfg.LogicalUtilization))
	emit(t)
}

func table3(_ exp.Options, emit func(*report.Table)) {
	t := report.New("Table III: SSD architectures evaluated", "acronym", "description")
	for _, row := range exp.TableIII() {
		t.Add(row[0], row[1])
	}
	emit(t)
}

var ablations = []struct {
	name  string
	title string
	run   func(exp.Options) []exp.AblationRow
}{
	{"vwidth", "Ablation: v-channel width (h fixed at 8 bits)", exp.AblationVWidth},
	{"routing", "Ablation: routing policy under read skew", exp.AblationRouting},
	{"ctrl-latency", "Ablation: control-plane message latency", exp.AblationCtrlLatency},
	{"gc-group", "Ablation: spatial GC group fraction", exp.AblationGCGroup},
	{"organization", "Ablation: Omnibus organization at 64 chips", exp.AblationOrganization},
	{"ecc", "Ablation: on-die ECC failure rate for flash-to-flash copies", exp.AblationEccFallback},
	{"victim", "Ablation: GC victim selection policy", exp.AblationVictimPolicy},
}

func runAblations(which string, opt exp.Options, emit func(*report.Table)) {
	ran := false
	for _, a := range ablations {
		if which != "all" && which != a.name {
			continue
		}
		ran = true
		t := report.New(a.title, "config", "mean latency", "p99", "detail")
		for _, row := range a.run(opt) {
			t.Add(row.Name, row.Latency.String(), row.P99.String(), row.Detail)
		}
		emit(t)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown ablation %q\n", which)
		os.Exit(2)
	}
}

func runFaultExperiments(which string, opt exp.Options, emit func(*report.Table)) {
	ran := false
	if which == "sweep" || which == "all" {
		ran = true
		rows := exp.FaultSweep(opt)
		t := report.New("Degraded mode: fault-rate sweep x architecture (rocksdb-0, PaGC, >=2 program-fails + 1 erase-fail per chip)",
			"architecture", "read-ECC rate", "mean latency", "p99", "KIOPS",
			"retries", "relays", "retired", "remaps", "ok")
		for _, r := range rows {
			ok := "yes"
			if !r.Consistent || !r.Completed {
				ok = "NO"
			}
			t.Add(r.Arch.String(), report.Pct(r.ReadECC), r.Latency.String(), r.P99.String(),
				report.F1(r.KIOPS), fmt.Sprint(r.RAS.ReadRetries), fmt.Sprint(r.RAS.ReadRelays),
				fmt.Sprint(r.RAS.BlocksRetired), fmt.Sprint(r.RAS.WriteRemaps), ok)
		}
		emit(t)
	}
	if which == "degraded" || which == "all" {
		ran = true
		rows := exp.DegradedSweep(opt)
		t := report.New("Degraded mode: pnSSD+split with SpGC under interconnect faults (rocksdb-0)",
			"scenario", "mean latency", "p99", "KIOPS", "vs healthy",
			"grant drops", "failovers", "dead-v copies", "degraded returns", "ok")
		for _, r := range rows {
			ok := "yes"
			if !r.Consistent || !r.Completed {
				ok = "NO"
			}
			t.Add(r.Name, r.Latency.String(), r.P99.String(), report.F1(r.KIOPS),
				report.Pct(r.Delta), fmt.Sprint(r.RAS.GrantDrops), fmt.Sprint(r.RAS.CopyFailovers),
				fmt.Sprint(r.RAS.DeadVCopies), fmt.Sprint(r.RAS.DegradedReturns), ok)
		}
		emit(t)
		for _, r := range rows {
			if r.RAS.TotalFaults() > 0 {
				emit(report.RASTable("RAS counters: "+r.Name, r.RAS))
			}
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown fault experiment %q\n", which)
		os.Exit(2)
	}
}

func figTenant(opt exp.Options, emit func(*report.Table)) {
	rows := exp.TenantSweep(opt)
	t := report.New("Tenant interference: noisy write neighbor vs latency-sensitive reader (arbiter x SpGC; supplementary analysis)",
		"config", "tenant", "mean", "p50", "p95", "p99", "p99.9", "KIOPS", "SLO misses")
	for _, r := range rows {
		for _, tn := range r.Tenants {
			t.Add(r.Point.Label(), tn.Name, tn.Mean.String(), tn.P50.String(), tn.P95.String(),
				tn.P99.String(), tn.P999.String(), report.F1(tn.KIOPS), fmt.Sprint(tn.SLOViolations))
		}
	}
	emit(t)
}

func figArray(opt exp.Options, emit func(*report.Table)) {
	rows := exp.ArraySweep(opt)
	t := report.New("Rack-scale erasure-coded array: 2 groups of 2+1 + spare, rocksdb-0 (supplementary analysis)",
		"architecture", "gc", "scenario", "mean", "p99", "KIOPS",
		"degraded reads", "rebuild pages", "rebuild time", "failed reads", "GC copies", "ok")
	for _, r := range rows {
		ok := "yes"
		if !r.OK {
			ok = "NO"
		}
		t.Add(r.Arch.String(), r.GC.String(), string(r.Scenario),
			r.Latency.String(), r.P99.String(), report.F1(r.KIOPS),
			fmt.Sprint(r.RAS.DegradedReads), fmt.Sprint(r.RAS.RebuildPages),
			r.RebuildTime.String(), fmt.Sprint(r.RAS.FailedReads), fmt.Sprint(r.GCCopies), ok)
	}
	emit(t)
}

func figSched(opt exp.Options, emit func(*report.Table)) {
	rows := exp.SchedSweep(opt)
	t := report.New("Controller scheduling: Venice/Sprinkler-class policies vs Omnibus wires (rocksdb-0, GC active; supplementary analysis)",
		"architecture", "scheduler", "gc", "mean", "p99", "KIOPS", "MB/s", "GC copies", "deferred", "reordered")
	for _, r := range rows {
		gc := "PaGC"
		if r.Point.SpGC {
			gc = "SpGC"
		}
		t.Add(r.Point.Arch.String(), r.Point.Sched, gc, r.Mean.String(), r.P99.String(),
			report.F1(r.KIOPS), report.F1(r.BWMBps), fmt.Sprint(r.GCCopied),
			fmt.Sprint(r.Deferred), fmt.Sprint(r.Reordered))
	}
	emit(t)

	noisy := exp.SchedNoisy(opt)
	t = report.New("Controller scheduling under a noisy neighbor (dwrr + SpGC; latency tenant's tail is the score)",
		"architecture", "scheduler", "latency p99", "latency p99.9", "SLO misses", "noisy p99", "deferred", "reordered")
	for _, r := range noisy {
		t.Add(r.Point.Arch.String(), r.Point.Sched, r.LatencyP99.String(), r.LatencyP999.String(),
			fmt.Sprint(r.SLOViolations), r.NoisyP99.String(), fmt.Sprint(r.Deferred), fmt.Sprint(r.Reordered))
	}
	emit(t)
}

func figFmmu(opt exp.Options, emit func(*report.Table)) {
	rows := exp.FmmuSweep(opt)
	t := report.New("On-flash mapping: map-cache size x workload skew (pnSSD+split, GC active; supplementary analysis)",
		"mapping", "skew", "mean", "p99", "KIOPS", "map lookups", "map misses", "miss rate", "fetches", "writebacks")
	for _, r := range rows {
		name := r.Point.Mapping
		if r.Point.Mapping == "fmmu" {
			name = fmt.Sprintf("fmmu-%d", r.Point.Entries)
		}
		t.Add(name, r.Point.Skew, r.Mean.String(), r.P99.String(), report.F1(r.KIOPS),
			fmt.Sprint(r.MapLookups), fmt.Sprint(r.MapMisses), report.F2(r.MissRate),
			fmt.Sprint(r.MapFetches), fmt.Sprint(r.MapWritebacks))
	}
	emit(t)
}

func figContention(opt exp.Options, emit func(*report.Table)) {
	rows := exp.Contention(opt)
	t := report.New("Channel contention profile (search-0, read-skewed; supplementary analysis)",
		"architecture", "mean latency", "h mean wait", "worst wait", "v mean wait", "busiest util")
	for _, r := range rows {
		t.Add(r.Arch.String(), r.MeanLatency.String(), r.HMeanWait.String(),
			r.HMaxWait.String(), r.VMeanWait.String(), report.F2(r.BusiestUtil))
	}
	emit(t)
}
