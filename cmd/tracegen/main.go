// Command tracegen emits synthetic workload traces as CSV, either from a
// named preset or from explicit parameters. The output replays with
// `pssdsim -tracefile`; the default -footprint is the logical capacity
// of pssdsim's default (scaled, GC off) device, so the two fit together
// without flags.
//
//	go run ./cmd/tracegen -preset exchange-1 -n 5000 > exchange1.csv
//	go run ./cmd/tracegen -read-ratio 0.7 -zipf 1.3 -n 1000 > custom.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole binary behind a testable seam: parse and check every
// flag, generate, and write the CSV to stdout and a one-line summary to
// stderr. A bad flag returns an error before anything is written.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("preset", "", "named preset (empty = custom parameters)")
	n := fs.Int("n", 2000, "number of requests")
	footprint := fs.Int64("footprint", ssd.ScaledConfig().LogicalPages(), "logical footprint in pages (default: pssdsim's default device)")
	seed := fs.Int64("seed", 1, "generator seed")
	readRatio := fs.Float64("read-ratio", 0.5, "fraction of reads (custom)")
	zipf := fs.Float64("zipf", 0, "Zipf skew s (>1 skews, 0 uniform; custom)")
	regions := fs.Int("regions", 64, "hot region count (custom)")
	regionPages := fs.Int("region-pages", 0, "read-hot window pages per region (custom)")
	reqPages := fs.Int("req-pages", 4, "request size in pages (custom)")
	gapUS := fs.Int("gap-us", 80, "mean inter-burst gap in microseconds (custom)")
	burst := fs.Int("burst", 4, "requests per burst (custom)")
	list := fs.Bool("list", false, "list presets and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	if *list {
		for _, name := range workload.Names() {
			why, _ := workload.Describe(name)
			fmt.Fprintf(stdout, "%-12s %s\n", name, why)
		}
		return nil
	}

	switch {
	case *n <= 0:
		return fmt.Errorf("-n must be positive, got %d", *n)
	case *footprint <= 0:
		return fmt.Errorf("-footprint must be positive, got %d", *footprint)
	case !(*readRatio >= 0 && *readRatio <= 1):
		return fmt.Errorf("-read-ratio must be in [0, 1], got %v", *readRatio)
	case *zipf != 0 && !(*zipf > 1 && !math.IsInf(*zipf, 1)):
		return fmt.Errorf("-zipf must be 0 (uniform) or a finite value > 1, got %v", *zipf)
	case *regions <= 0:
		return fmt.Errorf("-regions must be positive, got %d", *regions)
	case *regionPages < 0:
		return fmt.Errorf("-region-pages must not be negative, got %d", *regionPages)
	case *reqPages <= 0:
		return fmt.Errorf("-req-pages must be positive, got %d", *reqPages)
	case *gapUS < 0:
		return fmt.Errorf("-gap-us must not be negative, got %d", *gapUS)
	case float64(*n)*float64(*gapUS)*float64(sim.Microsecond) > math.MaxInt64/4:
		return fmt.Errorf("-n %d at -gap-us %d spans more simulated time than a trace can hold", *n, *gapUS)
	case *burst <= 0:
		return fmt.Errorf("-burst must be positive, got %d", *burst)
	}

	var tr workload.Trace
	if *preset != "" {
		var err error
		if tr, err = workload.Named(*preset, *footprint, *n, *seed); err != nil {
			return err
		}
	} else {
		if *footprint < int64(*reqPages) {
			return fmt.Errorf("-footprint %d is smaller than one %d-page request", *footprint, *reqPages)
		}
		tr = workload.Generate("custom", workload.Params{
			ReadRatio:   *readRatio,
			ZipfS:       *zipf,
			HotRegions:  *regions,
			RegionPages: *regionPages,
			ReqPages:    *reqPages,
			MeanGap:     sim.Time(*gapUS) * sim.Microsecond,
			Burst:       *burst,
		}, *footprint, *n, *seed)
	}
	if err := workload.WriteCSV(stdout, tr); err != nil {
		return err
	}
	reads, writes, frac := tr.Mix()
	fmt.Fprintf(stderr, "%s: %d requests (%d R / %d W, %.0f%% read), footprint %d pages, duration %v\n",
		tr.Name, len(tr.Requests), reads, writes, frac*100, tr.Footprint, tr.Duration())
	return nil
}
