// Package exp contains one runner per table and figure of the paper's
// evaluation (Sec VII), plus the motivation figures. Each runner takes
// as-built SSDs (new, or recycled with ssd.SSD.Reset), drives the
// workload the paper describes, and returns typed rows; cmd/experiments
// renders them as tables. Sweep and
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

	// warmed holds the saved warm-ups and devices the idle devices. Quick
	// and Full attach one of each, shared by every exported call given
	// those options or a copy of them, so each distinct warmed state is
	// warmed once and each device structure built once per worker for
	// all those calls. withDefaults gives a call fresh ones of each that
	// it lacks. Results do not change: a warmed state is a function of
	// its key alone, and a reset device equals a new build.
	warmed  *warmCache
	devices *devicePool
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
		o.warmed = newWarmCache()
	}
	if o.devices == nil {
		o.devices = newDevicePool()
	}
	return o
}

// Quick returns options small enough for unit tests and -short benches,
// with a warm-up cache and device pool of their own.
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
		warmed:            newWarmCache(),
		devices:           newDevicePool(),
	}
}

// Full returns the full-scale options: seed 1 and every other field zero,
// so each call takes its defaults, with a warm-up cache and device pool
// of their own.
func Full() Options {
	return Options{Seed: 1, warmed: newWarmCache(), devices: newDevicePool()}
}

// withFTL returns cfg with the given GC mode and allocation policy.
func withFTL(cfg ssd.Config, mode ftl.GCMode, policy ftl.AllocPolicy) ssd.Config {
	cfg.FTL.GCMode = mode
	cfg.FTL.Policy = policy
	return cfg
}

// devicePool holds idle devices keyed by arch and ssd.Structure, for
// as long as the Options that own it live. A run takes an as-built
// device from it: an idle one of its structure after ssd.SSD.Reset to
// the run's configuration, or a new build when none is idle. A key never
// has more devices than runs of it in flight at once, so the pool holds
// at most one idle device per worker per key. Every Table III device is
// pooled. The exceptions are the NewCustom devices of the three
// ablations whose fabric is not a Table III architecture (v-channel
// width, routing policy, control-message latency): their fabric comes
// from a function that no key can name.
type devicePool struct {
	mu   sync.Mutex
	idle map[poolKey][]*ssd.SSD
}

type poolKey struct {
	arch ssd.Arch
	st   ssd.Structure
}

func newDevicePool() *devicePool { return &devicePool{idle: make(map[poolKey][]*ssd.SSD)} }

// get returns an as-built device of arch and cfg.
func (p *devicePool) get(arch ssd.Arch, cfg ssd.Config) *ssd.SSD {
	k := poolKey{arch, cfg.Structure()}
	p.mu.Lock()
	if idle := p.idle[k]; len(idle) > 0 {
		s := idle[len(idle)-1]
		p.idle[k] = idle[:len(idle)-1]
		p.mu.Unlock()
		s.Reset(cfg)
		return s
	}
	p.mu.Unlock()
	return ssd.New(arch, cfg)
}

// put gives a drained device back for a later run.
func (p *devicePool) put(s *ssd.SSD) {
	p.mu.Lock()
	k := poolKey{s.Arch, s.Config.Structure()}
	p.idle[k] = append(p.idle[k], s)
	p.mu.Unlock()
}

// onDevice runs fn on a device of arch and cfg from opt's pool and then
// gives the device back. fn must copy out what it returns, since the
// device's next run resets it.
func onDevice[T any](opt Options, arch ssd.Arch, cfg ssd.Config, fn func(*ssd.SSD) T) T {
	s := opt.devices.get(arch, cfg)
	v := fn(s)
	opt.devices.put(s)
	return v
}

// warm preconditions s (ssd.SSD.Precondition at opt.Seed), churned at
// churnFraction when churn is set. The first warm-up of each distinct
// state in opt's cache runs for real and is saved; every later one
// restores the saved state.
func warm(s *ssd.SSD, opt Options, churn bool) {
	e := opt.warmed.entry(warmKey{s.FTL.WarmKey(), churn, opt.Seed})
	saved := false
	e.once.Do(func() {
		e.state = s.FTL.SaveWarm(func() { s.Precondition(churnOf(churn), opt.Seed) })
		saved = true
	})
	if !saved {
		s.FTL.RestoreWarm(e.state)
	}
}

// churnOf is the churn fraction warm preconditions with.
func churnOf(churn bool) float64 {
	if churn {
		return churnFraction
	}
	return 0
}

// warmKey names one distinct warmed state. The arch is not part of it:
// ftl.New never sees the arch, and every arch builds the same chip grid.
type warmKey struct {
	ftl   ftl.WarmKey
	churn bool
	seed  int64
}

func newWarmCache() *warmCache { return &warmCache{entries: make(map[warmKey]*warmEntry)} }

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
// run s to drain. Callers take s from the pool and read its metrics
// afterwards.
func replay(s *ssd.SSD, opt Options, churn bool, trace string) {
	warm(s, opt, churn)
	tr, err := workload.Named(trace, s.Config.LogicalPages(), opt.TraceRequests, opt.Seed)
	if err != nil {
		panic(err)
	}
	s.Host.MustReplay(tr.Requests)
	s.Run()
}

// replayTrace runs the recipe on a pooled SSD and returns copies of the
// host metrics and FTL stats.
func replayTrace(arch ssd.Arch, cfg ssd.Config, mode ftl.GCMode, opt Options, churn bool, trace string) (*stats.IOMetrics, ftl.Stats) {
	type out struct {
		m  *stats.IOMetrics
		st ftl.Stats
	}
	o := onDevice(opt, arch, withFTL(cfg, mode, ftl.PCWD), func(s *ssd.SSD) out {
		replay(s, opt, churn, trace)
		return out{s.Metrics().Clone(), s.FTL.Stats()}
	})
	return o.m, o.st
}

// replayTenants is the multi-tenant form of replay: it puts a 16-deep
// front end with the given arbiter over cfg, takes and warms a pooled
// SSD, replays the tenants' interleaved traces, runs to drain, and
// returns what read copies out of the SSD. cfg carries the GC mode and
// policy.
func replayTenants[T any](arch ssd.Arch, cfg ssd.Config, specs []workload.TenantSpec, arbiter string, opt Options, churn bool, read func(*ssd.SSD) T) T {
	cfg.Frontend = &host.FrontendConfig{
		Tenants:     workload.QueueConfigs(specs),
		Arbiter:     arbiter,
		MaxInflight: 16,
	}
	return onDevice(opt, arch, cfg, func(s *ssd.SSD) T {
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
		return read(s)
	})
}

// runClosedLoop drives opt.SyntheticRequests requests of a synthetic
// pattern, reqPages pages each, with a fixed outstanding depth, and
// returns a copy of the host metrics.
func runClosedLoop(arch ssd.Arch, cfg ssd.Config, policy ftl.AllocPolicy, p workload.Pattern, outstanding, reqPages int, opt Options) *stats.IOMetrics {
	return onDevice(opt, arch, withFTL(cfg, ftl.GCNone, policy), func(s *ssd.SSD) *stats.IOMetrics {
		warm(s, opt, false)
		gen := workload.Synthetic(p, s.Config.LogicalPages(), reqPages, opt.Seed)
		s.Host.RunClosedLoop(gen, outstanding, opt.SyntheticRequests)
		s.Run()
		return s.Metrics().Clone()
	})
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
