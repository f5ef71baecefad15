package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/exp"
	"repro/internal/report"
)

var update = flag.Bool("update", false, "rewrite the golden files from this run")

// The figure golden: the default suite at -quick, rendered exactly as
// `experiments -quick -csv` prints it, compared byte for byte against
// the committed file. Any drift in a figure's numbers — a model change,
// an arithmetic slip, a reordered row — fails here and shows up as a
// reviewable testdata diff when accepted with -update.
func TestQuickSuiteGolden(t *testing.T) {
	var buf bytes.Buffer
	defaultSuite(exp.Quick(), func(tb *report.Table) { buf.WriteString(tb.CSV()) })
	const golden = "testdata/quick.csv"
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
		t.Errorf("-quick -csv output differs from %s (rerun with -update to accept):\n%s", golden, firstDiff(buf.Bytes(), want))
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
