package array

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/workload"
)

// smallCfg builds a 2-group 2+1 array of tiny pnSSDs with one spare —
// big enough to exercise rotation, small enough to simulate in
// milliseconds.
func smallCfg() Config {
	dc := ssd.ScaledConfig()
	dc.Channels, dc.Ways = 2, 2
	dc.Geometry = flash.Geometry{Planes: 2, BlocksPerPlane: 4, PagesPerBlock: 8, PageSize: 4096}
	dc.LogicalUtilization = 0.75
	return Config{
		Arch:   ssd.ArchPnSSD,
		Device: dc,
		Data:   2, Parity: 1,
		Groups: 2,
		Spares: 1,
		Seed:   1,
	}
}

// mixedTrace builds an open-loop array trace: one request every
// `spacing`, every writeEvery-th a write, LPNs striding the footprint.
func mixedTrace(cfg Config, n, writeEvery int, spacing sim.Time) []host.Request {
	lpns := cfg.LogicalPages()
	reqs := make([]host.Request, n)
	for i := range reqs {
		kind := stats.Read
		if writeEvery > 0 && i%writeEvery == 0 {
			kind = stats.Write
		}
		reqs[i] = host.Request{
			Arrival: sim.Time(i) * spacing,
			Kind:    kind,
			LPN:     (int64(i) * 7) % lpns,
			Pages:   1,
		}
	}
	return reqs
}

func TestLayoutRotationAndRoundTrip(t *testing.T) {
	cfg := smallCfg()
	w := cfg.Width()
	for g := 0; g < cfg.Groups; g++ {
		for _, stripe := range []int64{0, 1, 5, cfg.StripesPerGroup() - 1} {
			seen := map[int]bool{}
			for lane := 0; lane < w; lane++ {
				s := cfg.shardAt(g, stripe, lane)
				if s.lpn != stripe {
					t.Fatalf("shard lpn %d != stripe %d", s.lpn, stripe)
				}
				if s.dev < g*w || s.dev >= (g+1)*w {
					t.Fatalf("shard dev %d outside group %d", s.dev, g)
				}
				if seen[s.dev] {
					t.Fatalf("stripe %d places two shards on dev %d", stripe, s.dev)
				}
				seen[s.dev] = true
				if got := cfg.laneOf(s.dev%w, stripe); got != lane {
					t.Fatalf("laneOf(%d,%d) = %d, want %d", s.dev%w, stripe, got, lane)
				}
			}
		}
	}
	// Parity must rotate: lane m's device for stripe 0 and 1 differ.
	if cfg.shardAt(0, 0, cfg.Data).dev == cfg.shardAt(0, 1, cfg.Data).dev {
		t.Fatal("parity does not rotate across stripes")
	}
	for _, a := range []int64{0, 1, 17, cfg.LogicalPages() - 1} {
		g, stripe, lane := cfg.locate(a)
		if lane >= cfg.Data || g >= cfg.Groups || stripe >= cfg.StripesPerGroup() {
			t.Fatalf("locate(%d) = (%d,%d,%d) out of range", a, g, stripe, lane)
		}
	}
}

func TestHealthyRunCompletesClean(t *testing.T) {
	cfg := smallCfg()
	cfg.Device.Check = &check.Config{}
	reqs := mixedTrace(cfg, 200, 4, 10*sim.Microsecond)
	res := Run(cfg, reqs, 2)
	if err := res.Err(); err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	if got := res.Metrics.TotalRequests(); got != 200 {
		t.Fatalf("recorded %d/200 requests", got)
	}
	r := res.RAS
	if r.DegradedReads != 0 || r.FailedReads != 0 || r.RouterRetries != 0 ||
		r.RedirectedWrites != 0 || r.LostWrites != 0 || r.RebuildPages != 0 {
		t.Fatalf("healthy run touched failure paths: %s", r)
	}
	if res.Metrics.MeanLatency() <= RouteLatency {
		t.Fatalf("mean latency %v implausibly small", res.Metrics.MeanLatency())
	}
}

// Killing one device of an m+k group mid-trace must yield zero failed
// host reads: reads of its shards reconstruct from survivors or serve
// from the rebuilt spare, writes redirect, and the rebuild re-protects
// every stripe — all under the array invariant checker.
func TestSingleKillZeroFailedReads(t *testing.T) {
	cfg := smallCfg()
	cfg.Device.Check = &check.Config{}
	cfg.RebuildPagesPerSec = 200_000
	kill := 1 * sim.Millisecond
	cfg.Failures = []fault.DeviceEvent{{Device: 0, At: kill}}
	reqs := mixedTrace(cfg, 400, 4, 10*sim.Microsecond)
	res := Run(cfg, reqs, 4)
	if err := res.Err(); err != nil {
		t.Fatalf("killed run: %v", err)
	}
	r := res.RAS
	if r.FailedReads != 0 {
		t.Fatalf("FailedReads = %d, want 0 (single kill in 2+1)", r.FailedReads)
	}
	if r.DegradedReads == 0 {
		t.Fatal("no degraded reads despite mid-trace kill")
	}
	if r.RedirectedWrites == 0 {
		t.Fatal("no writes redirected to the spare")
	}
	if got := r.RebuildPages + r.RebuildSkipped; got != cfg.StripesPerGroup() {
		t.Fatalf("rebuild covered %d stripes, want %d", got, cfg.StripesPerGroup())
	}
	if res.RebuildTime <= 0 {
		t.Fatalf("RebuildTime = %v", res.RebuildTime)
	}
	if r.DoubleAcks != 0 {
		t.Fatalf("DoubleAcks = %d", r.DoubleAcks)
	}
	if res.Metrics.TotalRequests() != 400 {
		t.Fatalf("recorded %d/400 requests", res.Metrics.TotalRequests())
	}
}

// The same run must be byte-identical at any parallelism: all routing
// is planned open-loop and reassembly is an arithmetic join.
func TestRunParallelismInvariant(t *testing.T) {
	cfg := smallCfg()
	cfg.Device.Check = &check.Config{}
	cfg.RebuildPagesPerSec = 200_000
	cfg.Failures = []fault.DeviceEvent{
		{Device: 3, At: 800 * sim.Microsecond},
		{Device: 1, At: 200 * sim.Microsecond, Transient: true, Until: 500 * sim.Microsecond},
	}
	reqs := mixedTrace(cfg, 300, 5, 8*sim.Microsecond)
	digest := func(res *Result) string {
		return fmt.Sprintf("%s|%v|%v|%v|%v|%d|%v",
			res.RAS, res.Metrics.MeanLatency(), res.Metrics.Combined().P99(),
			res.SimTime, res.RebuildTime, res.Incomplete, res.Metrics.KIOPS())
	}
	want := digest(Run(cfg, reqs, 1))
	for _, par := range []int{2, 8} {
		if got := digest(Run(cfg, reqs, par)); got != want {
			t.Fatalf("parallel=%d diverged:\n got %s\nwant %s", par, got, want)
		}
	}
}

// A transient outage retries with backoff and resumes on the same
// device; reads that outlast the ladder reconstruct instead.
func TestTransientOutageRetries(t *testing.T) {
	cfg := smallCfg()
	cfg.Device.Check = &check.Config{}
	// A long window: reads early in it exhaust the ladder (70us by
	// default) and reconstruct; reads near its end retry onto the
	// device.
	cfg.Failures = []fault.DeviceEvent{
		{Device: 2, At: 100 * sim.Microsecond, Transient: true, Until: 1 * sim.Millisecond},
	}
	reqs := mixedTrace(cfg, 300, 0, 5*sim.Microsecond) // reads only
	res := Run(cfg, reqs, 2)
	if err := res.Err(); err != nil {
		t.Fatalf("outage run: %v", err)
	}
	r := res.RAS
	if r.RouterRetries == 0 {
		t.Fatal("no router retries during a transient outage")
	}
	if r.RetryExhausted == 0 || r.DegradedReads == 0 {
		t.Fatalf("long outage should exhaust some ladders: %s", r)
	}
	if r.FailedReads != 0 {
		t.Fatalf("FailedReads = %d", r.FailedReads)
	}
}

// With no spare, writes to a dead device are lost but the stripes stay
// readable through the survivors.
func TestKillWithoutSpareLosesWritesNotReads(t *testing.T) {
	cfg := smallCfg()
	cfg.Spares = 0
	cfg.Device.Check = &check.Config{}
	cfg.Failures = []fault.DeviceEvent{{Device: 4, At: 0}}
	// writeEvery=5: a multiple of the group width here would alias the
	// write stride with the shard rotation and skip device 4 entirely.
	reqs := mixedTrace(cfg, 200, 5, 10*sim.Microsecond)
	res := Run(cfg, reqs, 2)
	if err := res.Err(); err != nil {
		t.Fatalf("spareless run: %v", err)
	}
	r := res.RAS
	if r.LostWrites == 0 {
		t.Fatal("dead device with no spare should lose shard writes")
	}
	if r.RedirectedWrites != 0 {
		t.Fatalf("RedirectedWrites = %d with no spare", r.RedirectedWrites)
	}
	if r.FailedReads != 0 {
		t.Fatalf("FailedReads = %d", r.FailedReads)
	}
}

// Plan-level unit checks: exact counter accounting for the undetected
// window and the direct spare-read path.
func TestPlanUndetectedKillBurnsLadder(t *testing.T) {
	cfg := smallCfg()
	cfg.Failures = []fault.DeviceEvent{{Device: 0, At: 0}}
	// One read whose data shard lives on dev 0: stripe 0 lane 0.
	reqs := []host.Request{{Arrival: 0, Kind: stats.Read, LPN: 0, Pages: 1}}
	p := BuildPlan(cfg, reqs)
	r := p.RAS
	if r.RouterRetries != RetryMax || r.RetryExhausted != 1 {
		t.Fatalf("undetected kill: retries=%d exhausted=%d", r.RouterRetries, r.RetryExhausted)
	}
	if r.DegradedReads != 1 || r.ReconstructionReads != int64(cfg.Data) {
		t.Fatalf("reconstruction accounting: %s", r)
	}
	// The reconstruction must not touch the dead device.
	if len(p.Device[0]) != 0 {
		t.Fatalf("dead device received %d ops", len(p.Device[0]))
	}
}

func TestPlanSpareReadAfterRebuild(t *testing.T) {
	cfg := smallCfg()
	cfg.RebuildPagesPerSec = 1_000_000_000 // rebuild everything at detection
	cfg.Failures = []fault.DeviceEvent{{Device: 0, At: 0}}
	late := DetectLatency + sim.Time(cfg.StripesPerGroup()) + sim.Millisecond
	reqs := []host.Request{{Arrival: late, Kind: stats.Read, LPN: 0, Pages: 1}}
	p := BuildPlan(cfg, reqs)
	if p.RAS.SpareReads != 1 {
		t.Fatalf("SpareReads = %d, want 1 (rebuilt stripe serves from spare): %s", p.RAS.SpareReads, p.RAS)
	}
	spare := cfg.Groups * cfg.Width()
	foundRead := false
	for _, op := range p.Device[spare] {
		if op.Kind == stats.Read && op.LPN == 0 {
			foundRead = true
		}
	}
	if !foundRead {
		t.Fatal("spare trace has no read of the rebuilt shard")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero parity", func(c *Config) { c.Parity = 0 }},
		{"zero groups", func(c *Config) { c.Groups = 0 }},
		{"negative spares", func(c *Config) { c.Spares = -1 }},
		{"negative rebuild rate", func(c *Config) { c.RebuildPagesPerSec = -1 }},
		{"failure on spare", func(c *Config) {
			c.Failures = []fault.DeviceEvent{{Device: c.Groups * c.Width(), At: 0}}
		}},
	}
	if err := smallCfg().Validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	for _, tc := range cases {
		cfg := smallCfg()
		tc.mut(&cfg)
		if cfg.Validate() == nil {
			t.Fatalf("%s: Validate accepted it", tc.name)
		}
	}
}

// The rebuild-rate sweep's slowest point: tiny SpGC members under a
// throttled rebuild drive each FTL to its compaction limit with writes
// stalled. GC must keep making net progress there (the copy budget goes
// to the victims that free the most), so the run drains instead of
// chaining zero-gain rounds forever.
func TestSlowRebuildOnTinySpGCArrayDrains(t *testing.T) {
	cfg := smallCfg()
	cfg.Device.Geometry.BlocksPerPlane = 8
	cfg.Device.Geometry.PagesPerBlock = 16
	cfg.Device.Geometry.PageSize = 16384
	cfg.Device.FTL.GCMode = ftl.GCSpatial
	cfg.ChurnFraction = 0.5
	cfg.RebuildPagesPerSec = 50_000
	cfg.Device.Check = &check.Config{}
	tr, err := workload.Named("rocksdb-0", cfg.LogicalPages(), 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Failures = []fault.DeviceEvent{{Device: 0, At: tr.Requests[len(tr.Requests)/4].Arrival}}
	res := Run(cfg, tr.Requests, 1)
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TotalRequests() != 300 || res.RAS.FailedReads != 0 {
		t.Fatalf("completed %d/300 requests, %d failed reads", res.Metrics.TotalRequests(), res.RAS.FailedReads)
	}
}

// BenchmarkArrayRouter measures the erasure-coded array router alone —
// shard placement, degraded-read reconstruction, retry-ladder routing,
// and the throttled rebuild schedule for a mixed trace with one
// mid-trace device kill. No device simulation runs, so ns/op tracks
// pure planning throughput; device-ops is the fan-out the plan emits.
func BenchmarkArrayRouter(b *testing.B) {
	dc := ssd.ScaledConfig()
	dc.Channels, dc.Ways = 2, 2
	dc.Geometry.Planes = 2
	dc.Geometry.BlocksPerPlane = 8
	dc.Geometry.PagesPerBlock = 16
	dc.LogicalUtilization = 0.75
	cfg := Config{
		Arch:   ssd.ArchPnSSDSplit,
		Device: dc,
		Data:   2, Parity: 1,
		Groups:             2,
		Spares:             1,
		Seed:               1,
		RebuildPagesPerSec: 200_000,
		Failures:           []fault.DeviceEvent{{Device: 0, At: 2 * sim.Millisecond}},
	}
	tr, err := workload.Named("rocksdb-0", cfg.LogicalPages(), 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := BuildPlan(cfg, tr.Requests)
		b.ReportMetric(float64(p.DeviceOps()), "device-ops")
		b.ReportMetric(float64(p.RAS.DegradedReads), "degraded-reads")
	}
}
