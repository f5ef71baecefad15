// Trace replay: generate a trace CSV with the workload package, write it
// to disk, read it back, and replay it against two architectures — the
// round trip a user with real trace files would follow (convert to the
// arrival_ps,op,lpn,pages CSV, then replay).
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/ssd"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(stdout io.Writer) error {
	cfg := ssd.ScaledConfig()
	foot := cfg.LogicalPages()

	// 1. Generate a skewed read-mostly trace and persist it as CSV.
	tr, err := workload.Named("web-0", foot, 1500, 99)
	if err != nil {
		return err
	}
	path := filepath.Join(os.TempDir(), "web0-example.csv")
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := workload.WriteCSV(fh, tr); err != nil {
		fh.Close()
		return err
	}
	fh.Close()
	defer os.Remove(path)
	reads, writes, frac := tr.Mix()
	fmt.Fprintf(stdout, "wrote %s: %d requests (%d R / %d W, %.0f%% reads)\n\n", path, len(tr.Requests), reads, writes, frac*100)

	// 2. Read it back, exactly as an external trace would arrive.
	fh, err = os.Open(path)
	if err != nil {
		return err
	}
	replayed, err := workload.ReadCSV(fh, "web-0")
	fh.Close()
	if err != nil {
		return err
	}

	// 3. Replay on two architectures and compare.
	for _, arch := range []ssd.Arch{ssd.ArchBase, ssd.ArchPnSSDSplit} {
		device := ssd.New(arch, cfg)
		device.Host.Warmup(foot)
		if _, err := device.Host.Replay(replayed.Requests); err != nil {
			return fmt.Errorf("%v: replay rejected: %v", arch, err)
		}
		device.Run()
		m := device.Metrics()
		if device.Host.InFlight() != 0 {
			return fmt.Errorf("%v: completed %d of %d requests", arch, m.TotalRequests(), len(replayed.Requests))
		}
		fmt.Fprintf(stdout, "%-16s completed=%d mean=%v p99=%v %.1f KIOPS\n",
			arch, m.TotalRequests(), m.MeanLatency(), m.Combined().P99(), m.KIOPS())
	}
	return nil
}
