package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

// recordedDigests holds each workload's model digest at seed 1 and the
// default unit size, as recorded on the commit that introduced the
// benchmark. A differing digest means the simulated outcome changed; the
// benchmark warns (digest-changed) but does not fail.
//
//go:embed digests.json
var recordedDigests []byte

func warnDigest(w workload, seed int64, digest string) {
	if (seed != 1 && w.device != nil) || digest == "" {
		return // the sweep's simulated inputs do not depend on the seed
	}
	var rec map[string]string
	if err := json.Unmarshal(recordedDigests, &rec); err != nil {
		panic(err)
	}
	if want, ok := rec[w.name]; ok && want != digest {
		fmt.Fprintf(stderr, "digest-changed %s (recorded %s, now %s)\n", w.name, want, digest)
	}
}

// summary is one metric over the suite's repeats.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// suiteWorkload is one workload's suite result.
type suiteWorkload struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Digests   []string            `json:"digests"`
	Metrics   map[string]*summary `json:"metrics"`
	Layers    map[string]metric   `json:"layers,omitempty"`
}

// suiteFile is the suite's result file, the input of -compare.
type suiteFile struct {
	Seed      int64                     `json:"seed"`
	Repeats   int                       `json:"repeats"`
	Machine   map[string]string         `json:"machine"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

// runSuite verifies every workload under the checker, runs the timed
// repeats round-robin across workloads, then the traced runs; each step is
// a child process of this binary, run one at a time. It prints every
// metric's median and writes the result file and the span file.
func runSuite(o options, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	file := suiteFile{
		Seed: o.seed, Repeats: suiteRepeats,
		Machine: map[string]string{
			"go": runtime.Version(), "os_arch": runtime.GOOS + "/" + runtime.GOARCH,
			"nproc": strconv.Itoa(runtime.NumCPU()), "gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		},
		Workloads: map[string]*suiteWorkload{},
	}
	for _, w := range workloads {
		file.Workloads[w.name] = &suiteWorkload{Correct: true, Metrics: map[string]*summary{}}
	}
	step := func(kind string, w workload) *result {
		fmt.Fprintf(stderr, "%s %s\n", kind, w.name)
		args := []string{"-child", kind, "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10)}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		var res result
		if err == nil {
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			err = json.Unmarshal(lines[len(lines)-1], &res)
		}
		sw := file.Workloads[w.name]
		if err != nil {
			fmt.Fprintf(stderr, "%s %s: %v\n", kind, w.name, err)
			sw.Correct = false
			return nil
		}
		sw.Correct = sw.Correct && res.Correct
		sw.Attempted += res.Attempted
		sw.Failed += res.Failed
		return &res
	}

	for _, w := range workloads {
		step("verify", w)
	}
	for i := 0; i < suiteRepeats; i++ {
		for _, w := range workloads {
			res := step("timed", w)
			if res == nil {
				continue
			}
			sw := file.Workloads[w.name]
			sw.Digests = append(sw.Digests, res.Digest)
			for name, m := range res.Metrics {
				s := sw.Metrics[name]
				if s == nil {
					s = &summary{Unit: m.Unit}
					sw.Metrics[name] = s
				}
				s.Values = append(s.Values, m.Value)
			}
		}
	}
	var runs [][]span
	for _, w := range workloads {
		if res := step("traced", w); res != nil {
			file.Workloads[w.name].Layers = res.Metrics
			runs = append(runs, res.Spans)
		}
	}
	if err := writeSpans(o.traceOut, runs); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	ok := true
	for _, w := range workloads {
		sw := file.Workloads[w.name]
		if len(sw.Digests) > 0 {
			for _, d := range sw.Digests[1:] {
				if d != sw.Digests[0] { // a repeat of the same input simulated differently
					fmt.Fprintf(stderr, "%s: model digests differ across repeats: %v\n", w.name, sw.Digests)
					sw.Failed += w.ops(w.requests)
					sw.Correct = false
				}
			}
			warnDigest(w, o.seed, sw.Digests[0])
		}
		for _, s := range sw.Metrics {
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
		}
		// fail_frac covers every checked unit of the invocation,
		// verification and traced runs included.
		if sw.Attempted > 0 {
			f := float64(sw.Failed) / float64(sw.Attempted)
			sw.Metrics["fail_frac"] = &summary{Unit: "frac", Median: f, Q1: f, Q3: f, Values: []float64{f}}
		}
		ok = ok && sw.Correct && sw.Failed == 0
		lines := map[string]metric{}
		for name, s := range sw.Metrics {
			lines[name] = metric{Value: s.Median, Unit: s.Unit}
		}
		for name, m := range sw.Layers {
			lines[name] = m
		}
		printLines(stdout, w.name, lines)
	}
	if err := writeJSON(o.out, file); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: a workload failed its output checks")
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSuite(path string) (*suiteFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

// compareFiles applies each end-to-end metric's bound to every workload
// both result files hold. A metric is unresolved when either file's
// spread exceeds its bound, and a regression when the new median is worse
// than the old by more than the bound (fail_frac: any failure). It exits 1
// on a regression.
func compareFiles(oldPath, newPath string, stdout io.Writer) int {
	a, err := readSuite(oldPath)
	var b *suiteFile
	if err == nil {
		b, err = readSuite(newPath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	gated := append(append([]decl(nil), endToEnd...), suiteOnly...)
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	regressed := false
	for _, wname := range names {
		wa, wb := a.Workloads[wname], b.Workloads[wname]
		if wb == nil {
			fmt.Fprintf(stdout, "%s: missing from %s\n", wname, newPath)
			continue
		}
		if len(wa.Digests) > 0 && len(wb.Digests) > 0 && wa.Digests[0] != wb.Digests[0] {
			fmt.Fprintf(stdout, "%s: digest-changed %s -> %s\n", wname, wa.Digests[0], wb.Digests[0])
		}
		for _, d := range gated {
			sa, sb := wa.Metrics[d.name], wb.Metrics[d.name]
			if sa == nil || sb == nil {
				continue
			}
			status, change := verdict(d, sa, sb)
			regressed = regressed || status == "REGRESSION"
			fmt.Fprintf(stdout, "%-16s %-12s %12.6g [%.6g, %.6g] -> %12.6g [%.6g, %.6g] %+7.2f%% bound %5.1f%% %s\n",
				wname, d.name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, change*100, d.bound*100, status)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// verdict judges one metric: its relative change (positive = worse) and
// ok, unresolved or REGRESSION.
func verdict(d decl, a, b *summary) (string, float64) {
	if d.name == "fail_frac" {
		if b.Median > 0 {
			return "REGRESSION", b.Median - a.Median
		}
		return "ok", b.Median - a.Median
	}
	var worse float64
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
	}
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case max(a.spread(), b.spread()) > d.bound:
		return "unresolved", worse
	case worse > d.bound:
		return "REGRESSION", worse
	}
	return "ok", worse
}
