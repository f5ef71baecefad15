// GC interference: the paper's headline scenario. The same mixed workload
// runs on the baseline SSD with parallel GC and on pnSSD with spatial GC;
// the spatial variant isolates collection traffic onto the GC group's
// v-channels, so host I/O barely notices a round that devastates the
// baseline (Sec VI, Figs 18-19).
package main

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/workload"
)

func run(arch ssd.Arch, mode ftl.GCMode) (*stats.IOMetrics, ftl.Stats) {
	cfg := ssd.ScaledConfig()
	cfg.FTL.GCMode = mode
	cfg.LogicalUtilization = 0.75 // GC needs absolute free headroom at this scale
	device := ssd.New(arch, cfg)
	// Install the footprint, then overwrite half of it instantly (capped
	// at half the free headroom) so blocks carry invalid pages and
	// collection has real work.
	device.Precondition(0.5, 7)

	// A write-heavy LSM-style trace keeps GC triggered throughout.
	tr, err := workload.Named("rocksdb-1", device.Config.LogicalPages(), 600, 7)
	if err != nil {
		panic(err)
	}
	device.Host.MustReplay(tr.Requests)
	device.Run()
	if err := device.FTL.CheckConsistency(); err != nil {
		panic(err)
	}
	return device.Metrics(), device.FTL.Stats()
}

func main() {
	type cfg struct {
		name string
		arch ssd.Arch
		mode ftl.GCMode
	}
	configs := []cfg{
		{"baseSSD + parallel GC (paper baseline)", ssd.ArchBase, ftl.GCParallel},
		{"baseSSD + spatial GC (channel-limited)", ssd.ArchBase, ftl.GCSpatial},
		{"pSSD    + spatial GC (2x bus)", ssd.ArchPSSD, ftl.GCSpatial},
		{"pnSSD   + spatial GC (isolated v-channels)", ssd.ArchPnSSD, ftl.GCSpatial},
	}
	var baseline float64
	for _, c := range configs {
		m, st := run(c.arch, c.mode)
		mean := m.MeanLatency()
		if baseline == 0 {
			baseline = float64(mean)
		}
		fmt.Printf("%-44s mean=%-10v p99=%-10v GC: %d rounds, %d copies, speedup vs baseline %.2fx\n",
			c.name, mean, m.Combined().P99(), st.GCRounds, st.GCPagesCopied,
			baseline/float64(mean))
	}
	fmt.Println("\nSpatial GC on pnSSD keeps I/O off the flash channels GC is using,")
	fmt.Println("so collection runs at full speed while the I/O group serves the host.")
}
