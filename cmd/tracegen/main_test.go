package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ssd"
	"repro/internal/workload"
)

// TestRunRejectsBadFlags checks the CLI boundary: every bad flag is an
// error before any CSV is written, and none of them panics.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "-5"},
		{"-footprint", "0"},
		{"-footprint", "2", "-req-pages", "4"},
		{"-req-pages", "0"},
		{"-preset", "rocksdb-0", "-n", "0"},
		{"-preset", "rocksdb-0", "-footprint", "1"},
		{"-preset", "nope"},
		{"-gap-us", "-1"},
		{"-gap-us", "2000000000", "-n", "1000000"},
		{"-read-ratio", "2"},
		{"-read-ratio", "-0.1"},
		{"-read-ratio", "NaN"},
		{"-zipf", "0.5"},
		{"-zipf", "+Inf"},
		{"-regions", "0"},
		{"-region-pages", "-1"},
		{"-burst", "0"},
		{"-no-such-flag"},
		{"stray"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run %v accepted", args)
			}
			if stdout.Len() != 0 {
				t.Fatalf("run %v wrote %d bytes of trace before failing", args, stdout.Len())
			}
		})
	}
}

// TestRunDefaultFitsDefaultDevice is the README round trip: a default
// tracegen run emits a trace that ReadCSV accepts and whose footprint
// fits the device pssdsim builds by default.
func TestRunDefaultFitsDefaultDevice(t *testing.T) {
	for _, args := range [][]string{
		{"-preset", "exchange-1", "-n", "5000"},
		{"-n", "500", "-zipf", "1.3", "-region-pages", "16"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		tr, err := workload.ReadCSV(&stdout, "gen")
		if err != nil {
			t.Fatalf("run %v: ReadCSV: %v", args, err)
		}
		if lp := ssd.ScaledConfig().LogicalPages(); tr.Footprint > lp {
			t.Fatalf("run %v: trace footprint %d exceeds default device's %d logical pages", args, tr.Footprint, lp)
		}
		if !strings.Contains(stderr.String(), "requests") {
			t.Fatalf("run %v: no summary on stderr: %q", args, stderr.String())
		}
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, name := range workload.Names() {
		if !strings.Contains(stdout.String(), name) {
			t.Fatalf("-list is missing preset %s", name)
		}
	}
}
