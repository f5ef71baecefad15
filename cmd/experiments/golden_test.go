package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/exp"
	"repro/internal/report"
	"repro/internal/runner"
)

var update = flag.Bool("update", false, "rewrite the golden files from this run")

// The figure goldens: each sweep at -quick, rendered exactly as
// `experiments -quick -csv <selector>` prints it, compared byte for byte
// against its committed file. Any drift in a figure's numbers — a model
// change, an arithmetic slip, a reordered row — fails here and shows up
// as a reviewable testdata diff when accepted with -update. The default
// suite runs at 1 and at 3 workers: which recycled device a run gets
// depends on the worker count, so a reset that leaked state from one
// run into the next would show as a difference.
func TestQuickSuiteGolden(t *testing.T) {
	cases := []struct {
		golden string // under testdata/
		run    func(exp.Options, func(*report.Table))
	}{
		{"quick.csv", defaultSuite},
		{"fig_sched.csv", figSched},
		{"fig_fmmu.csv", figFmmu},
		{"fig_array.csv", figArray},
		{"fig_contention.csv", figContention},
		{"ablation_all.csv", func(o exp.Options, e func(*report.Table)) { runAblations("all", o, e) }},
		{"fault_all.csv", func(o exp.Options, e func(*report.Table)) { runFaultExperiments("all", o, e) }},
		{"sweep_all.csv", func(o exp.Options, e func(*report.Table)) { runSweeps("all", o, e) }},
	}
	defer runner.SetDefault(runner.Default())
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			parallel := []int{runner.Default()}
			if c.golden == "quick.csv" {
				parallel = []int{1, 3}
			}
			for _, p := range parallel {
				runner.SetDefault(p)
				var buf bytes.Buffer
				c.run(options(true, 1, 0, false), func(tb *report.Table) { buf.WriteString(tb.CSV()) })
				golden := "testdata/" + c.golden
				if *update {
					if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("-quick -csv output at %d workers differs from %s (rerun with -update to accept):\n%s", p, golden, firstDiff(buf.Bytes(), want))
				}
			}
		})
	}
}

// firstDiff reports the first differing line of two CSV transcripts.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(lengths differ)"
}
