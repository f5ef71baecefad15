package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/ssd"
)

// decl declares one reported metric, as BENCHMARK.json lists it.
type decl struct {
	name, unit, better string
	// bound is the share of the baseline median an end-to-end metric may
	// worsen by before -compare flags a regression.
	bound float64
}

// endToEnd are the metrics of a timed run, BENCHMARK.json's end_to_end.
var endToEnd = []decl{
	{"run_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"events_m", "Mevents", "lower", 0.05},
	{"allocs_m", "Mallocs", "lower", 0.15},
}

// suiteOnly are end-to-end metrics the suite prints and -compare gates but
// BENCHMARK.json does not declare: req_per_s has no value for the sweep,
// fail_frac is 0 on every healthy run (its bound is absolute), and
// peak_rss_mb follows the Go collector's timing too closely to gate across
// seeds (the sweep's peak ranges from 17 to 42 MB run to run).
var suiteOnly = []decl{
	{"req_per_s", "1/s", "higher", 0.25},
	{"fail_frac", "frac", "lower", 0},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// cpuBuckets are the flat-CPU buckets of the traced drain: one per model
// package, plus the input generators, telemetry, the experiment runners
// (exp and runner), the Go runtime, and everything else.
var cpuBuckets = []string{"sim", "ftl", "controller", "bus", "flash", "host", "stats", "workload", "telemetry", "exp", "runtime", "other"}

// archLabel names an architecture in metric names (pssdsim's -arch with
// "+" spelled "-").
func archLabel(a ssd.Arch) string {
	return [...]string{"base", "nossd-pin", "nossd-free", "pssd", "pnssd", "pnssd-split"}[a]
}

// perLayer are the metrics of a traced run, BENCHMARK.json's per_layer.
// A metric whose layer a workload does not exercise reads 0.
var perLayer = func() []decl {
	var ds []decl
	add := func(name, unit, better string) { ds = append(ds, decl{name: name, unit: unit, better: better}) }
	for _, b := range cpuBuckets {
		add(b+".cpu_share", "frac", "lower")
	}
	add("sim.ns_per_event", "ns", "lower")
	add("sim.schedule_pop_ns", "ns", "lower")
	add("sim.hold_ns", "ns", "lower")
	add("sim.hold_allocs", "count", "lower")
	add("ftl.write_ns_gc", "ns", "lower")
	add("ftl.write_stalls", "count", "lower")
	add("ftl.gc_rounds", "count", "lower")
	add("ftl.gc_pages_copied", "count", "lower")
	add("ftl.waf", "ratio", "lower")
	for _, a := range ssd.Archs {
		add("controller.read_ns."+archLabel(a), "ns", "lower")
	}
	add("controller.direct_copies", "count", "higher")
	add("controller.relayed_copies", "count", "lower")
	add("controller.grant_wait_us", "us", "lower")
	add("bus.xfer_ns", "ns", "lower")
	add("bus.h_busy_frac", "frac", "lower")
	add("bus.v_busy_frac", "frac", "lower")
	add("bus.h_wait_us", "us", "lower")
	add("bus.v_wait_us", "us", "lower")
	add("flash.reads", "count", "lower")
	add("flash.programs", "count", "lower")
	add("flash.erases", "count", "lower")
	add("host.submit_ns", "ns", "lower")
	add("host.warmup_ms", "ms", "lower")
	add("host.sim_p50_us", "us", "lower")
	add("host.sim_p99_us", "us", "lower")
	add("host.sim_kiops", "kIOPS", "higher")
	add("ssd.new_ms", "ms", "lower")
	for _, p := range phaseNames {
		add("ssd.phase_"+strings.ReplaceAll(p, "-", "_")+"_us", "us", "lower")
	}
	add("workload.gen_ms", "ms", "lower")
	add("runtime.gc_cycles", "count", "lower")
	add("runtime.peak_rss_mb", "MB", "lower")
	for _, f := range quickFigures {
		add("exp."+f.name+"_s", "s", "lower")
	}
	add("runner.efficiency", "frac", "higher")
	add("bench.trace_overhead_pct", "%", "lower")
	add("trace.overhead_pct", "%", "lower")
	add("trace.peak_rss_mb", "MB", "lower")
	add("telemetry.overhead_pct", "%", "lower")
	add("check.overhead_pct", "%", "lower")
	add("observers.extra_events", "count", "lower")
	return ds
}()

// phaseNames are the telemetry attribution phases a flat-mapped device
// reports, in request-path order.
var phaseNames = []string{"sq-wait", "cmd", "nvme-xfer", "gc-stall", "flash"}

func declOf(name string) (decl, bool) {
	for _, list := range [][]decl{endToEnd, suiteOnly, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d, true
			}
		}
	}
	return decl{}, false
}

// metric is one value with its unit, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics builds a result's metric map from name → value, taking each
// unit from its declaration.
func metrics(values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(values))
	for name, v := range values {
		d, ok := declOf(name)
		if !ok {
			panic("undeclared metric " + name)
		}
		out[name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// only keeps the metrics of one declaration list.
func only(ms map[string]metric, list []decl) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, d := range list {
		if m, ok := ms[d.name]; ok {
			out[d.name] = m
		}
	}
	return out
}

// printLines writes one "workload metric value unit" line per metric, in
// name order.
func printLines(w io.Writer, workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %s %g %s\n", workload, name, ms[name].Value, ms[name].Unit)
	}
}

// quartiles returns the first quartile, median and third quartile of vs,
// computed as Python's statistics.quantiles(vs, n=4) does (the exclusive
// method), so spreads here match the same statistic computed in Python.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}
