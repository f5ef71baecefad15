package ssd

import (
	"fmt"
	"testing"

	"repro/internal/ftl"
	"repro/internal/workload"
)

// replayCases are the open-loop replays of the benchmark suite's device
// workloads: the conventional device under parallel GC on rocksdb-1
// (gc-write-bus) and the paper's device under Spatial GC on rocksdb-0
// (spgc-omnibus).
var replayCases = []struct {
	arch   Arch
	gc     ftl.GCMode
	preset string
}{
	{ArchBase, ftl.GCParallel, "rocksdb-1"},
	{ArchPnSSDSplit, ftl.GCSpatial, "rocksdb-0"},
}

// BenchmarkReplay measures open-loop trace replay: one op is one
// replayed request of the case's preset, arriving at its trace time on a
// warmed scaled device at 75% logical utilization, from Host.Replay
// through drain. It reports allocs/op and events/req. Run it at a fixed
// -benchtime=Nx so both are the same on every machine.
func BenchmarkReplay(b *testing.B) {
	for _, c := range replayCases {
		b.Run(fmt.Sprintf("%s-%s", archFlags[archIndex(c.arch)], c.gc), func(b *testing.B) {
			s, _ := writePathDevice(c.arch, c.gc)
			tr, err := workload.Named(c.preset, s.Config.LogicalPages(), b.N, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			s.Host.MustReplay(tr.Requests)
			s.Run()
			b.StopTimer()
			if s.Host.InFlight() != 0 {
				b.Fatalf("%d requests still in flight after the drain", s.Host.InFlight())
			}
			b.ReportMetric(float64(s.Engine.EventsFired())/float64(b.N), "events/req")
		})
	}
}
