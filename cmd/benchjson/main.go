// Command benchjson runs the repo's layer benchmarks (the engine and
// resource-hold benches of internal/sim, the die bench of
// internal/flash, the array-router bench of internal/array, and the
// host-request read- and write-path and device construction benches of
// internal/ssd) and the end-to-end
// BenchmarkQuickSuite of
// cmd/experiments (the whole -quick default suite, once), and re-emits
// the results as JSON, seeding the perf-trajectory file BENCH_quick.json.
// The committed CSV goldens of cmd/experiments pin the figures' numbers
// byte for byte. Every benchmark runs a fixed op count (benchRuns), so
// the simulation metrics (events per request or op, miss rates, plan
// sizes) and allocs/op are deterministic run to run; the wall-clock
// ns/op entries are not and are recorded for trend-watching only.
//
// -diff compares two result files metric by metric instead of running
// anything: it prints every shared deterministic metric whose relative
// change exceeds -threshold percent and exits 3 when any did. Wall-clock
// and allocator-size metrics (ns/op, B/op) are excluded —
// they are machine noise, not simulation behavior. CI runs it at
// -threshold 0 against the committed BENCH_quick.json, so any change to a
// deterministic metric fails until the baseline is regenerated.
//
//	go run ./cmd/benchjson                 # writes BENCH_quick.json
//	go run ./cmd/benchjson -o out.json -bench ReadPath   # runs everything, keeps the ReadPath rows
//	go run ./cmd/benchjson -diff -threshold 0 BENCH_quick.json /tmp/bench_new.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"flag"
)

// BenchResult is one benchmark's parsed output: the run count plus every
// reported metric (ns/op and the custom simulation metrics) keyed by unit.
type BenchResult struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

// File is the BENCH_quick.json layout.
type File struct {
	Note       string        `json:"note"`
	Go         string        `json:"go"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// benchLine matches `go test -bench` result lines:
//
//	BenchmarkReadPath/base-8   20000   1928 ns/op   14.00 events/req ...
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)

func main() {
	out := flag.String("o", "BENCH_quick.json", "output file")
	bench := flag.String("bench", ".", "keep only the benchmarks whose full name (e.g. BenchmarkReadPath/base) matches this regexp")
	diff := flag.Bool("diff", false, "compare two result files (old new) instead of running benchmarks")
	threshold := flag.Float64("threshold", 25, "with -diff: flag metrics whose relative change exceeds this percentage")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -diff [-threshold PCT] old.json new.json")
			os.Exit(2)
		}
		os.Exit(diffFiles(flag.Arg(0), flag.Arg(1), *threshold))
	}

	// Every benchmark runs a fixed op count, so its allocs/op and
	// simulation metrics are the same on every machine. The counts give
	// the engine, hold and router benches 50-150 ms each, long enough for
	// ns/op to mean something; the read- and write-path benches run a
	// fixed request count, BenchmarkNew builds a fixed number of
	// devices, and the quick suite, seconds long, runs once.
	// BenchmarkEngineThroughput makes about 70 allocations per op, so it
	// runs 30 ops: allocs/op is the total divided by the op count,
	// rounded down, and at 3 ops the two or three allocations the runtime
	// itself makes now and then could lift it by one.
	sel, err := regexp.Compile(*bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -bench: %v\n", err)
		os.Exit(2)
	}
	var raw []byte
	for _, run := range benchRuns {
		cmd := exec.Command("go", "test", "-run=^$", "-bench="+run.bench, "-benchtime="+run.benchtime, run.pkg)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench run of %s failed: %v\n%s", run.pkg, err, out)
			os.Exit(1)
		}
		raw = append(raw, out...)
	}

	var runs []string
	for _, run := range benchRuns {
		runs = append(runs, fmt.Sprintf("`go test -bench='%s' -benchtime=%s %s`", run.bench, run.benchtime, run.pkg))
	}
	file := File{
		Note: "Generated by cmd/benchjson from " + strings.Join(runs, ", ") + ". " +
			"Simulation metrics and allocs/op are deterministic; ns/op is wall-clock noise.",
	}
	if v, err := exec.Command("go", "env", "GOVERSION").Output(); err == nil {
		file.Go = strings.TrimSpace(string(v))
	}
	for _, line := range strings.Split(string(raw), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		if !sel.MatchString(m[1]) {
			continue
		}
		runs, _ := strconv.ParseInt(m[2], 10, 64)
		res := BenchResult{Name: m[1], Runs: runs, Metrics: map[string]float64{}}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			res.Metrics[fields[i+1]] = v
		}
		file.Benchmarks = append(file.Benchmarks, res)
	}
	if len(file.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "no benchmark lines parsed from output:\n%s", raw)
		os.Exit(1)
	}
	sort.Slice(file.Benchmarks, func(i, j int) bool {
		return file.Benchmarks[i].Name < file.Benchmarks[j].Name
	})

	fh, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "create %s: %v\n", *out, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(fh)
	enc.SetIndent("", "  ")
	if err := enc.Encode(file); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fh.Close()
	fmt.Printf("wrote %s: %d benchmarks\n", *out, len(file.Benchmarks))
}

// benchRuns are the go test runs behind a result file: each selects
// its benchmarks by name and runs each of them a fixed op count.
var benchRuns = []struct{ pkg, bench, benchtime string }{
	{"./internal/sim", "^Benchmark(EngineSchedule|EngineSameInstant|ResourceHold)$", "2000000x"},
	{"./internal/sim", "^BenchmarkResourceHoldContended$", "500000x"},
	{"./internal/sim", "^BenchmarkWindowedSparse$", "1000x"},
	{"./internal/sim", "^BenchmarkEngineThroughput$", "30x"},
	{"./internal/flash", "^BenchmarkChipOps$", "20000x"},
	{"./internal/array", ".", "20x"},
	{"./internal/ssd", "^Benchmark(ReadPath|WritePath|Replay)$", "20000x"},
	{"./internal/ssd", "^BenchmarkNew$", "200x"},
	{"./cmd/experiments", ".", "1x"},
}

// noisyMetrics are wall-clock / allocator readings that vary run to run
// and machine to machine; -diff ignores them. allocs/op is not among
// them: for a fixed workload it is a count, so a hot path that starts
// allocating again is flagged.
var noisyMetrics = map[string]bool{"ns/op": true, "B/op": true}

// loadFile reads one benchjson result file.
func loadFile(path string) (File, error) {
	var f File
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// diffFiles compares the deterministic metrics shared by two result
// files and returns the process exit code: 0 when everything is within
// the threshold, 3 when any metric regressed (moved more than
// threshold percent in either direction), 1 on read errors. Benchmarks
// or metrics present in only one file are reported but never fatal —
// the benchmark set is allowed to grow.
func diffFiles(oldPath, newPath string, threshold float64) int {
	oldF, err := loadFile(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	newF, err := loadFile(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	oldBy := map[string]BenchResult{}
	for _, b := range oldF.Benchmarks {
		oldBy[b.Name] = b
	}

	var compared, flagged int
	for _, nb := range newF.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Printf("new benchmark %s (no baseline, skipped)\n", nb.Name)
			continue
		}
		delete(oldBy, nb.Name)
		units := make([]string, 0, len(nb.Metrics))
		for u := range nb.Metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			if noisyMetrics[u] {
				continue
			}
			ov, ok := ob.Metrics[u]
			if !ok {
				fmt.Printf("new metric %s %s (no baseline, skipped)\n", nb.Name, u)
				continue
			}
			compared++
			nv := nb.Metrics[u]
			var pct float64
			switch {
			case ov == nv:
				continue
			case ov == 0:
				pct = 100 // any change from an exact zero is fully reportable
			default:
				pct = (nv - ov) / ov * 100
				if pct < 0 {
					pct = -pct
				}
			}
			if pct > threshold {
				flagged++
				fmt.Printf("REGRESSION %s %s: %g -> %g (%+.1f%%)\n",
					nb.Name, u, ov, nv, (nv-ov)/nonzero(ov)*100)
			}
		}
	}
	for name := range oldBy {
		fmt.Printf("benchmark %s missing from %s\n", name, newPath)
	}
	if flagged > 0 {
		fmt.Printf("%d of %d metrics moved more than %.0f%%\n", flagged, compared, threshold)
		return 3
	}
	fmt.Printf("ok: %d metrics within %.0f%%\n", compared, threshold)
	return 0
}

// nonzero guards the percentage display against a zero baseline.
func nonzero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}
