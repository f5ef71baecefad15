// Package prop is the property-based validation harness for the
// invariant checker: it derives randomized device configurations and
// workloads from a single seed, runs each one with the full checker
// attached, and exposes the results so tests can assert the two global
// properties — every generated configuration finishes with zero
// invariant violations, and a seed reproduces its results byte for
// byte regardless of how many runner workers execute the cases.
package prop

import (
	"bytes"
	"fmt"

	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// Case is one randomized configuration drawn by Generate. Every field
// that shapes the run is explicit so a failing case can be reproduced
// (and minimized) from its printed value alone.
type Case struct {
	Index    int
	Seed     uint64
	Arch     ssd.Arch
	Channels int
	Ways     int
	Planes   int
	Blocks   int // per plane
	Pages    int // per block
	BusMTps  int

	GCMode      ftl.GCMode
	GCThreshold float64
	Victim      ftl.VictimPolicy
	Utilization float64

	Faulty   bool
	Trace    string
	Requests int

	// Tenants > 1 routes the workload through a multi-queue front end
	// with the named Arbiter (round-robin striping of requests across
	// queues); Tenants <= 1 drives the single-queue host directly.
	Tenants int
	Arbiter string

	// Scheduler is the controller scheduling policy; FIFO runs without
	// the scheduling layer.
	Scheduler controller.SchedPolicy

	// Mapping selects the FTL mapping mode ("flat" or "fmmu"); under
	// fmmu the map cache holds MapCacheEntries translation pages.
	Mapping         string
	MapCacheEntries int
}

// String renders the case compactly for failure messages.
func (c Case) String() string {
	return fmt.Sprintf("case %d seed=%#x %v %dx%d geo=%d/%d/%d gc=%v thr=%.2f util=%.2f faulty=%v %s x%d tenants=%d/%s sched=%s map=%s/%d",
		c.Index, c.Seed, c.Arch, c.Channels, c.Ways, c.Planes, c.Blocks, c.Pages,
		c.GCMode, c.GCThreshold, c.Utilization, c.Faulty, c.Trace, c.Requests, c.Tenants, c.Arbiter, c.Scheduler,
		c.Mapping, c.MapCacheEntries)
}

// rng is a splitmix64 stream: tiny, seedable, and stable across Go
// releases — unlike math/rand, whose algorithm the standard library is
// free to change under us.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func pickInt(r *rng, opts ...int) int { return opts[r.intn(len(opts))] }

// Generate draws n cases from the seed. The same (seed, n) always
// yields the same slice. The space deliberately skews small: whole
// devices of a few hundred pages so a case runs in milliseconds, with
// GC always enabled (the checker's interesting invariants all live
// behind collection) and fault injection on roughly half the cases.
func Generate(seed uint64, n int) []Case {
	r := &rng{s: seed ^ 0x6a09e667f3bcc909}
	traces := workload.Names()
	gcModes := []ftl.GCMode{ftl.GCParallel, ftl.GCPreemptive, ftl.GCSpatial}
	victims := []ftl.VictimPolicy{ftl.VictimGreedy, ftl.VictimCostBenefit}
	cases := make([]Case, n)
	for i := range cases {
		blocks := pickInt(r, 6, 8, 12)
		planes := pickInt(r, 1, 2)
		channels := pickInt(r, 2, 4)
		ways := pickInt(r, 2, 4)
		pages := pickInt(r, 8, 16)
		faulty := r.intn(2) == 1
		mapping := []string{"flat", "fmmu"}[r.intn(2)]
		mapEntries := pickInt(r, 1, 4, 16, 64)
		// Feasibility cap: each plane permanently consumes ~2.5 blocks of
		// slack (host-active block, open GC destination, and the global
		// one-block-per-chip reserve), and forced retirement faults eat up
		// to two more blocks per chip for good. A utilization that leaves
		// less than that pushes the device past its compaction limit — GC
		// cycles 100%-valid blocks forever and stalled writes never drain.
		// That's an infeasible device, not a simulator bug, so the
		// generator stays on the feasible side.
		eff := float64(blocks)
		if faulty && blocks >= 8 {
			eff -= 2 / float64(planes)
		}
		if mapping == "fmmu" {
			// The map unit permanently carves its region out of the free
			// pool, round-robin across chips and planes. Charge each plane
			// its worst-case share before the utilization cap so fmmu cases
			// stay on the feasible side too. Upper-bound the translation
			// page count with the maximum drawable utilization (0.65).
			raw := channels * ways * planes * blocks * pages
			perPage := 4096 / 8
			numT := (raw*65/100 + perPage) / perPage
			mapBlocks := (numT+pages-1)/pages + 3
			slots := channels * ways * planes
			eff -= float64((mapBlocks + slots - 1) / slots)
		}
		// Utilization is a fraction of *raw* capacity, so the cap compares
		// against post-retirement blocks: valid data plus ~3.5 slack blocks
		// per plane (host-active, GC destination, reserve share, and margin
		// for uniform-garbage traces where GC reclaim is least efficient)
		// must fit in eff.
		util := 0.45 + 0.05*float64(r.intn(4))
		if max := (eff - 3.5) / float64(blocks); util > max {
			util = 0.05 * float64(int(max/0.05))
		}
		cases[i] = Case{
			Index:       i,
			Seed:        r.next(),
			Arch:        ssd.Archs[r.intn(len(ssd.Archs))],
			Channels:    channels,
			Ways:        ways,
			Planes:      planes,
			Blocks:      blocks,
			Pages:       pages,
			BusMTps:     pickInt(r, 800, 1000),
			GCMode:      gcModes[r.intn(len(gcModes))],
			GCThreshold: 0.2 + 0.05*float64(r.intn(5)),
			Victim:      victims[r.intn(len(victims))],
			Utilization: util,
			Faulty:      faulty,
			Trace:       traces[r.intn(len(traces))],
			Requests:    100 + 50*r.intn(5),
			Tenants:     pickInt(r, 1, 2, 3),
			Arbiter:     host.ArbiterNames()[r.intn(len(host.ArbiterNames()))],
			Scheduler:   controller.SchedPolicy(r.intn(len(controller.SchedPolicyNames()))),

			Mapping:         mapping,
			MapCacheEntries: mapEntries,
		}
	}
	return cases
}

// Config expands the case into a full device configuration with the
// invariant checker enabled.
func (c Case) Config() ssd.Config {
	cfg := ssd.DefaultConfig()
	cfg.Channels = c.Channels
	cfg.Ways = c.Ways
	cfg.Geometry.Planes = c.Planes
	cfg.Geometry.BlocksPerPlane = c.Blocks
	cfg.Geometry.PagesPerBlock = c.Pages
	cfg.Geometry.PageSize = 4096
	cfg.BusMTps = c.BusMTps
	cfg.FTL.GCMode = c.GCMode
	cfg.FTL.GCThreshold = c.GCThreshold
	cfg.FTL.Victim = c.Victim
	cfg.LogicalUtilization = c.Utilization
	if c.Faulty {
		cfg.Fault = &fault.Config{
			Seed:          c.Seed,
			ReadECCRate:   0.01,
			OnDieECCRate:  0.01,
			GrantDropRate: 0.02,
		}
		// Retirement faults permanently shrink capacity; only devices with
		// blocks to spare take them (mirrors the generator's eff cap).
		if c.Blocks >= 8 {
			cfg.Fault.ProgramFailsPerChip = 1
			cfg.Fault.EraseFailsPerChip = 1
		}
	}
	cfg.Scheduler = c.Scheduler
	if c.Mapping == "fmmu" {
		cfg.FTL.Map = &ftl.MapConfig{Entries: c.MapCacheEntries}
	}
	cfg.Check = &check.Config{}
	if c.Tenants > 1 {
		tenants := make([]host.TenantConfig, c.Tenants)
		for i := range tenants {
			// Deterministic weight/burst spread so wrr and dwrr exercise
			// their non-uniform paths: weights 1,2,3,... and a burst cap on
			// every other queue.
			tenants[i] = host.TenantConfig{
				Name:   fmt.Sprintf("t%d", i),
				Weight: 1 + i,
				Burst:  (i % 2) * 4,
			}
		}
		cfg.Frontend = &host.FrontendConfig{
			Tenants:     tenants,
			Arbiter:     c.Arbiter,
			MaxInflight: 8,
		}
	}
	return cfg
}

// Result is one case's outcome: the run summary (the determinism
// witness), the checker's tallies, and any failure.
type Result struct {
	Case       Case
	Summary    []byte
	Checks     int64
	Violations []check.Violation
	Err        error
}

// Run executes one case to drain and verifies every invariant. The
// returned Result carries the violation list even when Err is set so
// callers can print both.
func Run(c Case) Result {
	cfg := c.Config()
	s := ssd.New(c.Arch, cfg)
	foot := cfg.LogicalPages()
	s.Host.Warmup(foot)
	tr, err := workload.Named(c.Trace, foot, c.Requests, int64(c.Seed>>1))
	if err != nil {
		return Result{Case: c, Err: err}
	}
	if s.Frontend != nil {
		for i := range tr.Requests {
			tr.Requests[i].Tenant = i % c.Tenants
		}
		_, err = s.Frontend.Replay(tr.Requests)
	} else {
		_, err = s.Host.Replay(tr.Requests)
	}
	if err != nil {
		return Result{Case: c, Err: fmt.Errorf("%v: replay rejected: %w", c, err)}
	}
	// Engine.RunUntil, not SSD.Run: a violating case should come back as
	// a Result rather than a panic, and the horizon (generous — generated
	// workloads drain in well under 100 simulated ms) turns a livelocked
	// device into a clean liveness failure instead of a wall-clock hang.
	s.Engine.RunUntil(2 * sim.Second)
	res := Result{Case: c, Checks: s.Checker.Checks(), Violations: s.Checker.Violations()}
	if s.Engine.Pending() != 0 {
		res.Err = fmt.Errorf("%v: %d events still pending at the 2s horizon — livelock", c, s.Engine.Pending())
		return res
	}
	if done := s.Metrics().TotalRequests(); done != int64(len(tr.Requests)) {
		res.Err = fmt.Errorf("%v: completed %d of %d requests", c, done, len(tr.Requests))
		return res
	}
	if err := s.VerifyInvariants(); err != nil {
		res.Violations = s.Checker.Violations()
		res.Err = fmt.Errorf("%v: %w", c, err)
		return res
	}
	var buf bytes.Buffer
	if err := s.WriteSummaryJSON(&buf); err != nil {
		res.Err = err
		return res
	}
	res.Summary = buf.Bytes()
	return res
}

// RunAll executes the cases on the shared experiment runner with the
// given worker count and returns results in case order — the order (and
// every byte of every summary) must not depend on parallelism.
func RunAll(cases []Case, parallel int) []Result {
	return runner.Map(parallel, len(cases), func(i int) Result { return Run(cases[i]) })
}
