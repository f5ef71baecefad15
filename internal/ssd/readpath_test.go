package ssd

import (
	"testing"

	"repro/internal/controller"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/workload"
)

// The read-path pin and bench run closed-loop 64 KB random reads, 16 in
// flight. The warm-up batch is long enough for every chip to have seen
// its deepest read queue, so the per-chip queues are grown.
const (
	readPathOutstanding = 16
	readPathWarm        = 4096
	readPathBatch       = 512
)

// readPathDevice builds a warmed device of arch on cfg and returns it
// with a 64 KB random-read generator over its footprint.
func readPathDevice(arch Arch, cfg Config) (*SSD, func(int) host.Request) {
	s := New(arch, cfg)
	foot := cfg.LogicalPages()
	s.Host.Warmup(foot)
	return s, workload.Synthetic(workload.RandRead, foot, 65536/cfg.Geometry.PageSize, 1)
}

// fmmuReadConfig is the scaled config mapping through the fmmu map unit
// with a cache of a quarter of the translation pages, so a read stream
// mixes cache hits with demand fetches through the fabric.
func fmmuReadConfig() Config {
	cfg := ScaledConfig()
	perT := int64(cfg.Geometry.PageSize / 8)
	cfg.FTL.Map = &ftl.MapConfig{Entries: int((cfg.LogicalPages()+perT-1)/perT) / 4}
	return cfg
}

// TestReadPathAllocFree pins the allocation-free read path: once one
// batch has filled the per-layer free lists (host request, FTL read,
// fabric read, mesh transfer, SoC transfer, and on the fmmu device map
// lookup and fetch, under a scheduling layer its transactions) and grown
// the chips' read queues, a second batch of 64 KB reads allocates
// nothing per request on every architecture, on pnSSD(+split) mapping
// through the fmmu map unit, and on pnSSD(+split) under the conflict and
// out-of-order schedulers.
func TestReadPathAllocFree(t *testing.T) {
	type readCase struct {
		name string
		arch Arch
		cfg  Config
	}
	var cases []readCase
	for _, arch := range Archs {
		cases = append(cases, readCase{arch.String(), arch, ScaledConfig()})
	}
	cases = append(cases, readCase{"pnssd+split-fmmu", ArchPnSSDSplit, fmmuReadConfig()})
	for _, pol := range []controller.SchedPolicy{controller.SchedConflict, controller.SchedOOO} {
		cfg := ScaledConfig()
		cfg.Scheduler = pol
		cases = append(cases, readCase{"pnssd+split-" + pol.String(), ArchPnSSDSplit, cfg})
	}
	for _, c := range cases {
		s, gen := readPathDevice(c.arch, c.cfg)
		s.Host.RunClosedLoop(gen, readPathOutstanding, readPathWarm)
		s.Run()
		batch := func() {
			s.Host.RunClosedLoop(gen, readPathOutstanding, readPathBatch)
			s.Run()
		}
		perReq := testing.AllocsPerRun(2, batch) / readPathBatch
		if perReq > 0.1 {
			t.Errorf("%v: %.3f allocations per read request, want <= 0.1", c.name, perReq)
		}
	}
}

// BenchmarkReadPath measures the host-request layer end to end: one op
// is one 64 KB random read through host, FTL, fabric, flash and SoC on a
// warmed scaled device, closed loop at 16 in flight. It reports
// allocs/op, zero once the free lists are warm, and events/req. Run it
// at a fixed -benchtime=Nx so events/req is the same on every machine.
//
// The pnssd+split-fmmu case maps through the fmmu map unit
// (fmmuReadConfig), so the stream mixes cache hits with demand fetches
// through the fabric; it adds miss-pct.
func BenchmarkReadPath(b *testing.B) {
	for i, arch := range Archs {
		b.Run(archFlags[i], func(b *testing.B) { benchReadPath(b, arch, ScaledConfig()) })
	}
	b.Run("pnssd+split-fmmu", func(b *testing.B) {
		s := benchReadPath(b, ArchPnSSDSplit, fmmuReadConfig())
		b.ReportMetric(s.FTL.MapStats().MissRate()*100, "miss-pct")
	})
}

// benchReadPath runs one BenchmarkReadPath case and returns its device.
func benchReadPath(b *testing.B, arch Arch, cfg Config) *SSD {
	s, gen := readPathDevice(arch, cfg)
	s.Host.RunClosedLoop(gen, readPathOutstanding, readPathWarm)
	s.Run()
	fired := s.Engine.EventsFired()
	b.ReportAllocs()
	b.ResetTimer()
	s.Host.RunClosedLoop(gen, readPathOutstanding, b.N)
	s.Run()
	b.StopTimer()
	b.ReportMetric(float64(s.Engine.EventsFired()-fired)/float64(b.N), "events/req")
	return s
}
