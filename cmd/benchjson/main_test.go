package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func writeBench(t *testing.T, dir, name string, benches []BenchResult) string {
	t.Helper()
	path := filepath.Join(dir, name)
	raw, err := json.Marshal(File{Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffFiles covers the regression gate: deterministic metrics over
// the threshold exit 3 (allocs/op among them), wall-clock metrics are
// ignored, and new benchmarks/metrics never fail the comparison.
func TestDiffFiles(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBench(t, dir, "old.json", []BenchResult{
		{Name: "BenchmarkFig14", Runs: 1, Metrics: map[string]float64{
			"ns/op": 1000, "mean-latency-us": 100, "kiops": 50,
		}},
		{Name: "BenchmarkGone", Runs: 1, Metrics: map[string]float64{"kiops": 1}},
	})

	t.Run("within threshold", func(t *testing.T) {
		newPath := writeBench(t, dir, "ok.json", []BenchResult{
			{Name: "BenchmarkFig14", Runs: 1, Metrics: map[string]float64{
				"ns/op":           9_999_999, // wall clock: ignored at any drift
				"mean-latency-us": 110, "kiops": 45,
			}},
			{Name: "BenchmarkNew", Runs: 1, Metrics: map[string]float64{"kiops": 7}},
		})
		if code := diffFiles(oldPath, newPath, 25); code != 0 {
			t.Fatalf("exit %d, want 0", code)
		}
	})

	t.Run("regression flagged", func(t *testing.T) {
		newPath := writeBench(t, dir, "bad.json", []BenchResult{
			{Name: "BenchmarkFig14", Runs: 1, Metrics: map[string]float64{
				"mean-latency-us": 200, "kiops": 50, // +100% latency
			}},
		})
		if code := diffFiles(oldPath, newPath, 25); code != 3 {
			t.Fatalf("exit %d, want 3", code)
		}
		// A looser threshold lets the same change through.
		if code := diffFiles(oldPath, newPath, 150); code != 0 {
			t.Fatalf("exit %d at 150%% threshold, want 0", code)
		}
	})

	t.Run("exact gate", func(t *testing.T) {
		same := writeBench(t, dir, "same.json", []BenchResult{
			{Name: "BenchmarkFig14", Runs: 1, Metrics: map[string]float64{
				"ns/op": 2000, "mean-latency-us": 100, "kiops": 50,
			}},
		})
		if code := diffFiles(oldPath, same, 0); code != 0 {
			t.Fatalf("exit %d for unchanged metrics at threshold 0, want 0", code)
		}
		nudged := writeBench(t, dir, "nudged.json", []BenchResult{
			{Name: "BenchmarkFig14", Runs: 1, Metrics: map[string]float64{
				"mean-latency-us": 100.01, "kiops": 50,
			}},
		})
		if code := diffFiles(oldPath, nudged, 0); code != 3 {
			t.Fatalf("exit %d for a 0.01%% move at threshold 0, want 3", code)
		}
	})

	t.Run("allocs/op gated", func(t *testing.T) {
		zero := writeBench(t, dir, "zero.json", []BenchResult{
			{Name: "BenchmarkReadPath/base", Runs: 20000, Metrics: map[string]float64{"allocs/op": 0, "B/op": 0}},
		})
		again := writeBench(t, dir, "again.json", []BenchResult{
			{Name: "BenchmarkReadPath/base", Runs: 20000, Metrics: map[string]float64{"allocs/op": 22, "B/op": 1336}},
		})
		if code := diffFiles(zero, again, 25); code != 3 {
			t.Fatalf("exit %d for a hot path that allocates again, want 3", code)
		}
	})

	t.Run("read error", func(t *testing.T) {
		if code := diffFiles(filepath.Join(dir, "missing.json"), oldPath, 25); code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
	})
}
