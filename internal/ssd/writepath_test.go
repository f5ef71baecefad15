package ssd

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/controller"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/stats"
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
// sustained GC once the free lists are warm. Measured: 0.0088 on
// baseSSD and 0.0039 on pnSSD(+split). What remains is mostly growth: the chips' program
// and erase queues are still deepening after the warm-up, and each batch
// builds its closed-loop driver. One closure per request anywhere on the
// chain would cost at least 1.
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

// openLoopAllocsMax bounds allocations per request when an open-loop
// write storm replays on a reset device whose record pools grew in an
// earlier replay of the same trace. Measured: 0.0008, about ten in the
// 12,000-request replay, through the Host and through the Frontend
// alike: the replay's per-trace slices. No callback is built per
// request, chip batches come from one FTL-wide pool sized by the batches
// in flight, and the FTL's lists of reads parked on in-flight writes are
// reused. One allocation per request anywhere on the chain would cost 1.
const openLoopAllocsMax = 0.002

// openLoopFreshAllocsMax bounds allocations per request for the same
// replay on a fresh device, where every record pool grows to the
// backlog. Measured: 0.794 through the Host and 0.798 through the
// Frontend. About a quarter is the FTL's chip batches, five objects
// each for the ~500 in flight at once; the rest is the host, write, read,
// fabric, SoC and GC records and the chips' queues. A pool that grew
// with the stalled writes rather than with the batches in flight, as the
// FTL's per-record batches did, cost 1.58. The bound leaves room for
// builds with the race detector, which read 0.885 and 0.889.
const openLoopFreshAllocsMax = 1.0

// TestOpenLoopReplayAllocs pins what recycling a device saves. An
// open-loop replay of rocksdb-1 under PaGC backs writes up far past the
// 16 in flight of TestWritePathAllocs, and a fresh device grows every
// write, read, fabric and chip record pool to that backlog, allocating at
// most openLoopFreshAllocsMax per request. After Reset and a restore of
// the same warm state, the same replay finds the pools grown and
// allocates at most openLoopAllocsMax per request, both
// through Host.Replay and through Frontend.Replay, with the requests
// dealt in turn to two tenants, whose commands complete through the
// same host records.
func TestOpenLoopReplayAllocs(t *testing.T) {
	for _, frontend := range []bool{false, true} {
		cfg := ScaledConfig()
		cfg.FTL.GCMode = ftl.GCParallel
		cfg.LogicalUtilization = 0.75
		if frontend {
			cfg.Frontend = &host.FrontendConfig{Tenants: []host.TenantConfig{{Weight: 1}, {Weight: 2}}, Arbiter: "dwrr"}
		}
		s := New(ArchBase, cfg)
		foot := cfg.LogicalPages()
		ws := s.FTL.SaveWarm(func() { s.Host.Warmup(foot) })
		tr, err := workload.Named("rocksdb-1", foot, 12000, 1)
		if err != nil {
			t.Fatal(err)
		}
		replayOn := s.Host.Replay
		if frontend {
			for i := range tr.Requests {
				tr.Requests[i].Tenant = i % 2
			}
			replayOn = s.Frontend.Replay
		}
		replay := func() float64 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := replayOn(tr.Requests); err != nil {
				t.Fatal(err)
			}
			s.Run()
			runtime.ReadMemStats(&after)
			return float64(after.Mallocs-before.Mallocs) / float64(len(tr.Requests))
		}
		fresh := replay()
		if s.FTL.Stats().WriteStalls == 0 {
			t.Fatalf("frontend=%v: the replay never stalled a write: no backlog to grow the pools", frontend)
		}
		if fresh > openLoopFreshAllocsMax {
			t.Errorf("frontend=%v: replay on a fresh device: %.4f allocations per request, want <= %v", frontend, fresh, openLoopFreshAllocsMax)
		}
		s.Reset(s.Config)
		s.FTL.RestoreWarm(ws)
		if again := replay(); again > openLoopAllocsMax {
			t.Errorf("frontend=%v: replay on a reset device: %.3f allocations per request (%.3f on the fresh device), want <= %v", frontend, again, fresh, openLoopAllocsMax)
		} else {
			t.Logf("frontend=%v: allocations per request: %.4f on the fresh device, %.4f after Reset", frontend, fresh, again)
		}
	}
}

// TestResetRefusesBusyDevice: a device with a request pending cannot be
// reset, since Reset would drop it.
func TestResetRefusesBusyDevice(t *testing.T) {
	cfg := ScaledConfig()
	s := New(ArchBase, cfg)
	s.Host.Warmup(cfg.LogicalPages())
	s.Host.MustReplay([]host.Request{{Kind: stats.Read, LPN: 0, Pages: 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("Reset accepted a device with a request pending")
		}
	}()
	s.Reset(s.Config)
}

// TestResetRefusesOtherStructure: Reset refuses a configuration that
// changes any field of the device's Structure, each tried alone, and
// takes one that changes the utilization of a device without a map unit.
func TestResetRefusesOtherStructure(t *testing.T) {
	flat := ScaledConfig()
	flat.Geometry.BlocksPerPlane, flat.Geometry.PagesPerBlock = 8, 16
	mapped := flat
	mapped.FTL.Map = &ftl.MapConfig{Entries: 4}
	cases := []struct {
		name string
		from Config
		edit func(*Config)
	}{
		{"channels", flat, func(c *Config) { c.Channels = 4 }},
		{"ways", flat, func(c *Config) { c.Ways = 4 }},
		{"geometry", flat, func(c *Config) { c.Geometry.BlocksPerPlane = 12 }},
		{"timing", flat, func(c *Config) { c.Timing.Program++ }},
		{"bus-rate", flat, func(c *Config) { c.BusMTps = 800 }},
		{"scheduler", flat, func(c *Config) { c.Scheduler = controller.SchedOOO }},
		{"map-on", flat, func(c *Config) { c.FTL.Map = &ftl.MapConfig{Entries: 4} }},
		{"map-off", mapped, func(c *Config) { c.FTL.Map = nil }},
		{"map-entries", mapped, func(c *Config) { c.FTL.Map = &ftl.MapConfig{Entries: 8} }},
		{"map-utilization", mapped, func(c *Config) { c.LogicalUtilization = 0.75 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			to := c.from
			c.edit(&to)
			if err := to.Validate(); err != nil {
				t.Fatalf("the changed config is invalid: %v", err)
			}
			s := New(ArchPnSSD, c.from)
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "structure") {
					t.Fatalf("Reset to another structure: recovered %v, want a structure refusal", r)
				}
			}()
			s.Reset(to)
		})
	}
	s := New(ArchPnSSD, flat)
	to := flat
	to.LogicalUtilization = 0.75
	s.Reset(to)
	if got, want := s.FTL.NumLPNs(), to.LogicalPages(); got != want {
		t.Fatalf("after Reset to utilization 0.75: %d LPNs, want %d", got, want)
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
