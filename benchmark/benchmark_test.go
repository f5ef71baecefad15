package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tiny returns a unit size that runs in milliseconds.
func tiny(w workload) int {
	if w.device == nil {
		return 20
	}
	return 100
}

func init() {
	stderr = io.Discard
	setupReps = 1
}

// cheapSweep restricts the sweep to its figures that finish in
// milliseconds for the rest of the test; the full set takes seconds at
// any request count.
func cheapSweep(t *testing.T) {
	all := quickFigures
	t.Cleanup(func() { quickFigures = all })
	quickFigures = nil
	for _, f := range all {
		switch f.name {
		case "table1", "table2", "table3", "fig1", "fig6", "fig8", "fig14":
			quickFigures = append(quickFigures, f)
		}
	}
}

// TestTimedRunEmitsEndToEnd runs every workload at a tiny size and checks
// that it passes its output checks and reports every end-to-end metric
// with its unit.
func TestTimedRunEmitsEndToEnd(t *testing.T) {
	cheapSweep(t)
	for _, w := range workloads {
		res := measure(w, 1, tiny(w), 1, 1, 0)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		want := append(append([]decl(nil), endToEnd...), suiteOnly...)
		for _, d := range want {
			m, ok := res.Metrics[d.name]
			switch {
			case d.name == "req_per_s" && w.device == nil:
				if ok {
					t.Errorf("%s: req_per_s reported for the sweep", w.name)
				}
			case !ok:
				t.Errorf("%s: metric %s missing", w.name, d.name)
			case m.Unit != d.unit:
				t.Errorf("%s: %s unit %q, declared %q", w.name, d.name, m.Unit, d.unit)
			case d.name != "fail_frac" && !(m.Value > 0):
				t.Errorf("%s: %s = %v, want > 0", w.name, d.name, m.Value)
			}
		}
		if v := w.verify(1, tiny(w)); v.err != nil {
			t.Errorf("%s: verify: %v", w.name, v.err)
		}
	}
}

// TestTracedRunEmitsPerLayer runs the traced run of every workload at a
// tiny size. spgc-omnibus collects from its first requests and runs long
// enough for the profiler to sample, so its CPU shares must sum to 1.
func TestTracedRunEmitsPerLayer(t *testing.T) {
	defer func(d time.Duration) { microBatch = d }(microBatch)
	microBatch = 0 // one call per batch
	cheapSweep(t)
	for _, w := range workloads {
		res := tracedRun(w, 1, tiny(w))
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", w.name, res.Correct, res.Failed)
		}
		for _, d := range perLayer {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
				t.Errorf("%s: per-layer metric %s = %+v (ok=%v), declared unit %q", w.name, d.name, m, ok, d.unit)
			}
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, %d declared", w.name, len(res.Metrics), len(perLayer))
		}
		for i, s := range res.Spans {
			if (i == 0) != (s.Parent == 0) || s.Run != w.name+"/traced" {
				t.Errorf("%s: span %d %+v: want one root, every other span parented", w.name, i, s)
			}
		}
		if w.name != "spgc-omnibus" {
			continue
		}
		var sum float64
		for _, b := range cpuBuckets {
			sum += res.Metrics[b+".cpu_share"].Value
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("cpu_share buckets sum to %v", sum)
		}
		if res.Metrics["ftl.gc_rounds"].Value == 0 || res.Metrics["controller.direct_copies"].Value == 0 {
			t.Errorf("spgc-omnibus never collected over the Omnibus: %v rounds", res.Metrics["ftl.gc_rounds"].Value)
		}
	}
}

// TestPerInputCountsExact checks that a per-input count reads the same
// whether a run makes one round over its inputs or two. The allocation
// count may differ by the few the runtime makes on its own.
func TestPerInputCountsExact(t *testing.T) {
	w, _ := findWorkload("gc-write-bus")
	one := measure(w, 1, tiny(w), inputsPerRun, 1, 0)
	two := measure(w, 1, tiny(w), inputsPerRun, 2, 0)
	if a, b := one.Metrics["events_m"].Value, two.Metrics["events_m"].Value; a != b {
		t.Errorf("events_m: %v over one round, %v over two", a, b)
	}
	if a, b := one.Metrics["allocs_m"].Value, two.Metrics["allocs_m"].Value; math.Abs(a-b) > 1e-3*a {
		t.Errorf("allocs_m: %v over one round, %v over two", a, b)
	}
	if one.Attempted*2 != two.Attempted {
		t.Errorf("attempted %d over one round, %d over two", one.Attempted, two.Attempted)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
}

func TestBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*eventHeap).popMin":                      "sim",
		"repro/internal/ftl.(*FTL).retryStalled.func1":                "ftl",
		"repro/internal/mesh.(*Mesh).route":                           "bus",
		"repro/internal/runner.mapLabeled[go.shape.struct { x int }]": "exp",
		"repro/internal/check.(*Checker).Hold":                        "other",
		"runtime.mallocgc":                                            "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                "runtime",
		"sync/atomic.(*Int64).Add":                                    "runtime",
		"aeshashbody":                                                 "runtime",
		"math/rand.(*Rand).Int63n":                                    "other",
		"main.measure":                                                "other",
	} {
		if got := bucket(fn); got != want {
			t.Errorf("bucket(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUShares(t *testing.T) {
	const traces = `File: pssd-benchmark
Type: cpu
Duration: 1s, Total samples = 60000000ns (6.00%)
-----------+-------------------------------------------------------
    figure:  fig19
  30000000ns   repro/internal/ftl.(*allocator).slotAt (inline)
               repro/internal/ftl.(*allocator).next
-----------+-------------------------------------------------------
  20000000ns   runtime.asyncPreempt
               repro/internal/sim.(*Engine).step
               repro/internal/sim.(*Engine).Run
-----------+-------------------------------------------------------
  10000000ns   runtime.asyncPreempt
-----------+-------------------------------------------------------
`
	shares, err := cpuShares([]byte(traces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"ftl": 0.5, "sim": 1.0 / 3, "runtime": 1.0 / 6}
	for _, b := range cpuBuckets {
		if math.Abs(shares[b]-want[b]) > 1e-12 {
			t.Errorf("%s share %v, want %v", b, shares[b], want[b])
		}
	}
}

func TestSpansNestAndExport(t *testing.T) {
	sp := newSpans("w/traced")
	sp.do("root", func() {
		sp.do("a", func() {})
		sp.do("b", func() { sp.do("c", func() {}) })
	})
	var nilSpans *spans
	nilSpans.do("ignored", func() {})
	parents := map[string]int{}
	for _, s := range sp.list {
		parents[s.Name] = s.Parent
		if s.End < s.Start || s.Run != "w/traced" {
			t.Errorf("bad span %+v", s)
		}
	}
	if !reflect.DeepEqual(parents, map[string]int{"root": 0, "a": 1, "b": 1, "c": 3}) {
		t.Errorf("parents = %v", parents)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, [][]span{sp.list}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 4 {
		t.Errorf("chrome export: %v, %d events", err, len(doc.TraceEvents))
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, runS []float64, fail float64) string {
		q1, med, q3 := quartiles(runS)
		f := suiteFile{Seed: 1, Repeats: len(runS), Workloads: map[string]*suiteWorkload{
			"w": {Correct: true, Digests: []string{"d"}, Metrics: map[string]*summary{
				"run_s":     {Unit: "s", Median: med, Q1: q1, Q3: q3, Values: runS},
				"fail_frac": {Unit: "frac", Median: fail, Q1: fail, Q3: fail, Values: []float64{fail}},
			}},
		}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("base.json", []float64{10, 10.1, 10.2, 10.1, 10}, 0)
	for _, c := range []struct {
		name   string
		path   string
		exit   int
		status string
	}{
		{"same", file("same.json", []float64{10.1, 10, 10.2, 10, 10.1}, 0), 0, " ok"},
		{"slower", file("slow.json", []float64{13.5, 13.4, 13.6, 13.5, 13.5}, 0), 1, "REGRESSION"},
		{"noisy", file("noisy.json", []float64{7, 16, 10, 18, 9}, 0), 0, "unresolved"},
		{"failing", file("fail.json", []float64{10, 10, 10, 10, 10}, 0.01), 1, "REGRESSION"},
	} {
		var out bytes.Buffer
		if code := compareFiles(base, c.path, &out); code != c.exit || !strings.Contains(out.String(), c.status) {
			t.Errorf("%s: exit %d, output:\n%s", c.name, code, out.String())
		}
	}
}
