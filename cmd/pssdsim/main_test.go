package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file from this run")

// The CLI goldens: full deterministic runs compared byte for byte
// against committed output. Any behavior drift in the simulator, the
// report formatting, or the checker wiring shows up as a golden diff.
// An "OUT" argument names a file in a temporary directory; the
// transcript shows it as "OUT".
//
//   - spgc: scaled pnSSD+split device, spatial GC, invariant checker
//     attached; the golden is the whole transcript.
//   - write-storm: baseSSD under parallel GC on rocksdb-1, which parks
//     host writes on allocation 1,276 times; the golden is the
//     -metrics-json summary (it carries write_stalls), since the
//     transcript names the metrics file.
//   - heatmap: the spgc device on the full rocksdb-0 trace with -trace,
//     whose transcript adds the per-bus utilization heat table.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		name, golden string
		args         []string
		outFile      bool // compare the file written to OUT, not stdout
	}{
		{"spgc", "testdata/golden_rocksdb0_spgc.txt",
			[]string{"-arch", "pnssd+split", "-preset", "rocksdb-0", "-gc", "spgc", "-requests", "300", "-seed", "7", "-check"}, false},
		{"write-storm", "testdata/golden_rocksdb1_pagc_metrics.json",
			[]string{"-arch", "base", "-preset", "rocksdb-1", "-gc", "pagc", "-requests", "12000", "-seed", "1", "-check", "-metrics-json", "OUT"}, true},
		{"heatmap", "testdata/golden_rocksdb0_spgc_heatmap.txt",
			[]string{"-arch", "pnssd+split", "-gc", "spgc", "-preset", "rocksdb-0", "-check", "-trace", "OUT"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out.json")
			args := append([]string(nil), tc.args...)
			for i, a := range args {
				if a == "OUT" {
					args[i] = out
				}
			}
			var buf bytes.Buffer
			if err := run(args, &buf); err != nil {
				t.Fatalf("run %v: %v", args, err)
			}
			if !strings.Contains(buf.String(), "0 violations") {
				t.Error("checked run did not report zero violations")
			}
			got := bytes.ReplaceAll(buf.Bytes(), []byte(out), []byte("OUT"))
			if tc.outFile {
				var err error
				if got, err = os.ReadFile(out); err != nil {
					t.Fatal(err)
				}
			}
			if *update {
				if err := os.WriteFile(tc.golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s (rerun with -update to accept):\ngot:\n%s\nwant:\n%s", tc.golden, got, want)
			}
		})
	}
}

// The -trace JSON lists every span and instant in the order the model
// recorded them, so its digest catches a reorder within one instant
// that leaves every figure and transcript alone. Only the digest is
// committed; the trace is about 2 MB.
func TestTraceDigest(t *testing.T) {
	const want = "c4b963377d5341f8cacb5340f11840aaccb82b330d7f52de1d48a42f908d895a"
	out := filepath.Join(t.TempDir(), "trace.json")
	args := []string{"-arch", "pnssd+split", "-gc", "spgc", "-preset", "rocksdb-0", "-requests", "300", "-trace", out}
	if err := run(args, new(bytes.Buffer)); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("trace sha256 = %s, want %s", got, want)
	}
}

func TestListFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rocksdb-0", "exchange-1", "web-0"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("-list output missing preset %s", name)
		}
	}
}

// Every bad flag is rejected before the device is built, so nothing is
// printed ahead of the error.
func TestBadFlagsReturnErrors(t *testing.T) {
	dir := t.TempDir()
	tooBig := filepath.Join(dir, "toobig.csv")
	if err := os.WriteFile(tooBig, []byte("arrival_ps,op,lpn,pages\n0,R,999999999,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-arch", "bogus"},
		{"-gc", "bogus"},
		{"-policy", "bogus"},
		{"-synthetic", "bogus"},
		{"-preset", "bogus", "-requests", "10"},
		{"-requests", "0"},
		{"-requests", "-1"},
		{"-synthetic", "rand-read", "-outstanding", "0"},
		{"-synthetic", "rand-read", "-requests", "-1"},
		{"-tracefile", filepath.Join(dir, "missing.csv")},
		{"-tracefile", tooBig},
		{"-sched", "bogus"},
		{"-mapping", "bogus"},
		{"-mapcache", "-1"},
		{"-mapcache", "5"},
		{"-synthetic", "rand-read", "-tracefile", filepath.Join(dir, "missing.csv")},
		{"-synthetic", "rand-read", "-preset", "rocksdb-0"},
		{"-tracefile", filepath.Join(dir, "missing.csv"), "-preset", "rocksdb-0"},
		{"-synthetic", "rand-read", "-tracefile", tooBig, "-preset", "rocksdb-0"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed before failing:\n%s", args, out.String())
		}
	}
}

// A bad device flag's error names the accepted values, so the user
// learns what to type instead.
func TestBadFlagsNameAcceptedValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-sched", "venice"}, `"venice" (want fifo, conflict, or ooo)`},
		{[]string{"-mapping", "dftl"}, `"dftl" (want flat or fmmu)`},
		{[]string{"-mapping", "fmmu", "-mapcache", "-1"}, "negative map cache size -1"},
		{[]string{"-mapcache", "5"}, "-mapping fmmu"},
	} {
		err := run(tc.args, new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
