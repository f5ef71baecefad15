package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file from this run")

// The CLI smoke test: one full deterministic run — scaled pnSSD+split
// device, spatial GC, invariant checker attached — compared byte for
// byte against the committed transcript. Any behavior drift in the
// simulator, the report formatting, or the checker wiring shows up as
// a golden diff.
func TestGoldenOutput(t *testing.T) {
	args := []string{"-arch", "pnssd+split", "-preset", "rocksdb-0", "-gc", "spgc", "-requests", "300", "-seed", "7", "-check"}
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	const golden = "testdata/golden_rocksdb0_spgc.txt"
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
		t.Errorf("output differs from %s (rerun with -update to accept):\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
	if !strings.Contains(buf.String(), "0 violations") {
		t.Error("checked run did not report zero violations")
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
		{"-mapevict", "bogus"},
		{"-mapping", "fmmu", "-mapevict", "bogus"},
		{"-mapcache", "-1"},
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
