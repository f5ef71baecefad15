// Package exp contains one runner per table and figure of the paper's
// evaluation (Sec VII), plus the motivation figures. Each runner builds
// fresh SSDs, drives the workload the paper describes, and returns typed
// rows; cmd/experiments renders them as tables. Sweep and
// RebuildRateSweep add one-dimensional sensitivity sweeps (bus rate, way
// count, request size, tenant count, rebuild throttle, ...) on the same
// run recipes.
//
// Runs use ssd.ScaledConfig: the Table II organization (8 channels × 8
// ways × 4 planes, 16 KB pages, ULL timing, 1000 MT/s bus) with fewer
// blocks per plane so whole-device experiments complete in seconds. The
// interconnect behaviour under study is unaffected; see EXPERIMENTS.md.
package exp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options tunes experiment scale. Zero values select defaults, except
// Seed, where 0 is a seed like any other.
type Options struct {
	// Cfg is the device configuration; defaults to ssd.ScaledConfig().
	Cfg *ssd.Config
	// TraceRequests is the request count per trace replay (default 2000).
	TraceRequests int
	// SyntheticRequests is the request count per closed-loop run
	// (default 300).
	SyntheticRequests int
	// Seed makes every run deterministic; every value, 0 included, is
	// a distinct seed.
	Seed int64
	// Traces overrides the trace list (default workload.Names()).
	Traces []string

	// warmed holds the warm-ups of one exported call; withDefaults
	// gives each call a fresh one.
	warmed *warmCache
}

const (
	// churnFraction is the share of the logical space overwritten in
	// warm-up before GC experiments.
	churnFraction = 0.5
	// gcUtilization is the logical utilization used for GC experiments.
	// GC runs need an absolutely larger free pool than the no-GC runs:
	// the scaled geometry has few blocks per plane, so the default 87.5%
	// utilization leaves so few erased blocks that a single collection
	// round's destination allocations plus a write burst exhaust them and
	// writes stall — an artifact of scaling, not of the architectures
	// under study.
	gcUtilization = 0.75
)

func (o Options) withDefaults() Options {
	if o.Cfg == nil {
		c := ssd.ScaledConfig()
		o.Cfg = &c
	}
	if o.TraceRequests == 0 {
		o.TraceRequests = 2000
	}
	if o.SyntheticRequests == 0 {
		o.SyntheticRequests = 300
	}
	if o.Traces == nil {
		o.Traces = workload.Names()
	}
	if o.warmed == nil {
		o.warmed = &warmCache{entries: make(map[warmKey]*warmEntry)}
	}
	return o
}

// Quick returns options small enough for unit tests and -short benches.
func Quick() Options {
	c := ssd.ScaledConfig()
	c.Geometry.BlocksPerPlane = 8
	c.Geometry.PagesPerBlock = 16
	return Options{
		Cfg:               &c,
		TraceRequests:     400,
		SyntheticRequests: 80,
		Seed:              1,
		Traces:            []string{"exchange-1", "rocksdb-0", "mail-0"},
	}
}

// build constructs an SSD with the given architecture and GC mode.
func build(arch ssd.Arch, cfg ssd.Config, mode ftl.GCMode, policy ftl.AllocPolicy) *ssd.SSD {
	cfg.FTL.GCMode = mode
	cfg.FTL.Policy = policy
	return ssd.New(arch, cfg)
}

// warm installs the full logical footprint; with churn it then instantly
// overwrites churnFraction of it (bounded by the free headroom) so blocks
// carry the invalid pages GC experiments need. The first warm-up of each
// distinct state in opt's cache runs for real and is saved; every later
// one restores the saved state.
func warm(s *ssd.SSD, opt Options, churn bool) {
	e := opt.warmed.entry(warmKey{s.FTL.WarmKey(), churn, opt.Seed})
	saved := false
	e.once.Do(func() {
		e.state = s.FTL.SaveWarm(func() { install(s, churn, opt.Seed) })
		saved = true
	})
	if !saved {
		s.FTL.RestoreWarm(e.state)
	}
}

// install is the warm-up itself.
func install(s *ssd.SSD, churn bool, seed int64) {
	foot := s.Config.LogicalPages()
	s.Host.Warmup(foot)
	if !churn {
		return
	}
	headroom := s.Config.RawPages() - foot
	n := int64(float64(foot) * churnFraction)
	// Churn consumes free pages one-for-one; cap it at half the headroom
	// so the device enters the measured run with a working free pool —
	// GC needs erased blocks for copy destinations and the host keeps
	// writing while rounds are in flight.
	if limit := headroom / 2; n > limit {
		n = limit
	}
	rng := rand.New(rand.NewSource(seed))
	for i := int64(0); i < n; i++ {
		lpn := rng.Int63n(foot)
		s.FTL.Reinstall(lpn, ftl.TokenFor(lpn, 1))
	}
}

// warmKey names one distinct warmed state. The arch is not part of it:
// ftl.New never sees the arch, and every arch builds the same chip grid.
type warmKey struct {
	ftl   ftl.WarmKey
	churn bool
	seed  int64
}

// warmCache holds one saved warm-up per key. Each entry is filled once,
// by whichever worker reaches it first; the state is a function of the
// key alone, so which worker that is cannot show in any result.
type warmCache struct {
	mu      sync.Mutex
	entries map[warmKey]*warmEntry
}

type warmEntry struct {
	once  sync.Once
	state *ftl.WarmState
}

func (c *warmCache) entry(k warmKey) *warmEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if e == nil {
		e = &warmEntry{}
		c.entries[k] = e
	}
	return e
}

// replay is the package's one run recipe: warm s (churned if churn), replay
// opt.TraceRequests requests of the named preset trace at opt.Seed, and
// run s to drain. Callers build s and read its metrics afterwards.
func replay(s *ssd.SSD, opt Options, churn bool, trace string) {
	warm(s, opt, churn)
	tr, err := workload.Named(trace, s.Config.LogicalPages(), opt.TraceRequests, opt.Seed)
	if err != nil {
		panic(err)
	}
	s.Host.MustReplay(tr.Requests)
	s.Run()
}

// replayTrace runs the recipe on a fresh SSD and returns the host
// metrics and FTL stats.
func replayTrace(arch ssd.Arch, cfg ssd.Config, mode ftl.GCMode, opt Options, churn bool, trace string) (*stats.IOMetrics, ftl.Stats) {
	s := build(arch, cfg, mode, ftl.PCWD)
	replay(s, opt, churn, trace)
	return s.Metrics(), s.FTL.Stats()
}

// replayTenants is the multi-tenant form of replay: it puts a 16-deep
// front end with the given arbiter over cfg, builds and warms the SSD,
// replays the tenants' interleaved traces, runs to drain, and returns
// the SSD for the caller to read. cfg carries the GC mode and policy.
func replayTenants(arch ssd.Arch, cfg ssd.Config, specs []workload.TenantSpec, arbiter string, opt Options, churn bool) *ssd.SSD {
	cfg.Frontend = &host.FrontendConfig{
		Tenants:     workload.QueueConfigs(specs),
		Arbiter:     arbiter,
		MaxInflight: 16,
	}
	s := ssd.New(arch, cfg)
	warm(s, opt, churn)
	tr, err := workload.GenerateTenants(specs, s.Config.LogicalPages(), opt.Seed)
	if err != nil {
		panic(err)
	}
	if _, err := s.Frontend.Replay(tr.Requests); err != nil {
		panic(err)
	}
	s.Run()
	if !s.Frontend.Drained() {
		panic(fmt.Sprintf("%v/%s tenants: completed %d of %d requests", arch, arbiter, s.Metrics().TotalRequests(), len(tr.Requests)))
	}
	return s
}

// runClosedLoop drives opt.SyntheticRequests requests of a synthetic
// pattern, reqPages pages each, with a fixed outstanding depth.
func runClosedLoop(arch ssd.Arch, cfg ssd.Config, policy ftl.AllocPolicy, p workload.Pattern, outstanding, reqPages int, opt Options) *stats.IOMetrics {
	s := build(arch, cfg, ftl.GCNone, policy)
	warm(s, opt, false)
	gen := workload.Synthetic(p, s.Config.LogicalPages(), reqPages, opt.Seed)
	s.Host.RunClosedLoop(gen, outstanding, opt.SyntheticRequests)
	s.Run()
	return s.Metrics()
}

// gcCfg returns the device configuration for GC experiments: the base
// config at the (lower) GC utilization so the free pool is large enough,
// in absolute blocks, for collection and host writes to proceed
// concurrently at the scaled-down geometry.
func gcCfg(opt Options) ssd.Config {
	cfg := *opt.Cfg
	cfg.LogicalUtilization = gcUtilization
	return cfg
}

// forceContinuousGC re-triggers collection for the whole run so I/O always
// contends with GC (the Fig 18 setup: "GC is performed while I/Os are
// being serviced").
func forceContinuousGC(s *ssd.SSD) {
	var retrigger func()
	retrigger = func() {
		if s.Host.InFlight() == 0 {
			return // workload drained; let the run end
		}
		if !s.FTL.GCActive() {
			s.FTL.TriggerGC(func() {
				s.Engine.Schedule(10*sim.Microsecond, retrigger)
			})
			return
		}
		s.Engine.Schedule(10*sim.Microsecond, retrigger)
	}
	s.Engine.Schedule(sim.Microsecond, retrigger)
}

// improvement converts a latency pair into the paper's "I/O performance
// improvement" metric: base latency / new latency - 1.
func improvement(base, other sim.Time) float64 {
	if other == 0 {
		return 0
	}
	return float64(base)/float64(other) - 1
}

// speedup is base/other.
func speedup(base, other sim.Time) float64 {
	if other == 0 {
		return 0
	}
	return float64(base) / float64(other)
}

// geomean returns the geometric mean of positive values; zero for empty.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	prod := 1.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		prod *= v
	}
	return math.Pow(prod, 1/float64(len(vs)))
}
