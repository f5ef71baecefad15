package ssd

import (
	"fmt"
	"testing"

	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/workload"
)

// The write-path pin and bench run closed-loop 64 KB random writes, 16
// in flight, on a scaled device at 75% logical utilization, so GC runs
// throughout: every request crosses the host, FTL allocation, the
// fabric's write path and the chip program, and the GC rounds it
// triggers copy pages and erase blocks.
const (
	writePathOutstanding = 16
	writePathWarm        = 16384
	writePathBatch       = 1024
)

// writePathCases are the write-storm configurations: the conventional
// device under parallel GC (the gc-write-bus benchmark's setting) and
// the paper's device under Spatial GC, whose copies go flash to flash.
var writePathCases = []struct {
	arch Arch
	gc   ftl.GCMode
}{
	{ArchBase, ftl.GCParallel},
	{ArchPnSSDSplit, ftl.GCSpatial},
}

// writePathDevice builds a warmed device of arch on the scaled geometry
// with the given collector and returns it with a 64 KB random-write
// generator over its footprint.
func writePathDevice(arch Arch, gc ftl.GCMode) (*SSD, func(int) host.Request) {
	cfg := ScaledConfig()
	cfg.FTL.GCMode = gc
	cfg.LogicalUtilization = 0.75
	s := New(arch, cfg)
	foot := cfg.LogicalPages()
	s.Host.Warmup(foot)
	return s, workload.Synthetic(workload.RandWrite, foot, 65536/cfg.Geometry.PageSize, 1)
}

// writePathAllocsMax bounds allocations per 64 KB write request under
// sustained GC once the free lists are warm. Measured: 0.11 on baseSSD
// and 0.01 on pnSSD. What remains is mostly the chips' program records:
// each chip's free list grows to its deepest program queue, and on
// baseSSD, where every GC copy relays through a few open destination
// blocks, those queues are still deepening after the warm-up. The
// margin is about twice the larger value; one closure per request
// anywhere on the chain would cost at least 1.
const writePathAllocsMax = 0.25

// TestWritePathAllocs pins the allocation-free write and GC chains: once
// a warm-up batch has filled the free lists (host request, FTL write,
// GC victim, fabric op, copy, SoC transfer, chip program and erase), a
// second batch of 64 KB writes under sustained GC allocates at most
// writePathAllocsMax per request.
func TestWritePathAllocs(t *testing.T) {
	for _, c := range writePathCases {
		s, gen := writePathDevice(c.arch, c.gc)
		s.Host.RunClosedLoop(gen, writePathOutstanding, writePathWarm)
		s.Run()
		rounds := s.FTL.Stats().GCRounds
		batch := func() {
			s.Host.RunClosedLoop(gen, writePathOutstanding, writePathBatch)
			s.Run()
		}
		perReq := testing.AllocsPerRun(2, batch) / writePathBatch
		if s.FTL.Stats().GCRounds == rounds {
			t.Fatalf("%v/%v: no GC round during the measured batches", c.arch, c.gc)
		}
		if perReq > writePathAllocsMax {
			t.Errorf("%v/%v: %.3f allocations per write request, want <= %v", c.arch, c.gc, perReq, writePathAllocsMax)
		}
	}
}

// BenchmarkWritePath measures the host-request layer under a write
// storm: one op is one 64 KB random write through host, FTL, fabric,
// flash and SoC on a warmed scaled device with GC running, closed loop
// at 16 in flight. It reports allocs/op and events/req. Run it at a
// fixed -benchtime=Nx so events/req is the same on every machine.
func BenchmarkWritePath(b *testing.B) {
	for _, c := range writePathCases {
		b.Run(fmt.Sprintf("%s-%s", archFlags[archIndex(c.arch)], c.gc), func(b *testing.B) {
			s, gen := writePathDevice(c.arch, c.gc)
			s.Host.RunClosedLoop(gen, writePathOutstanding, writePathWarm)
			s.Run()
			fired := s.Engine.EventsFired()
			b.ReportAllocs()
			b.ResetTimer()
			s.Host.RunClosedLoop(gen, writePathOutstanding, b.N)
			s.Run()
			b.StopTimer()
			b.ReportMetric(float64(s.Engine.EventsFired()-fired)/float64(b.N), "events/req")
		})
	}
}

// archIndex returns arch's position in Archs.
func archIndex(arch Arch) int {
	for i, a := range Archs {
		if a == arch {
			return i
		}
	}
	panic(fmt.Sprintf("unknown arch %v", arch))
}
