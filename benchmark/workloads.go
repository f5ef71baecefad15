package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/check"
	"repro/internal/exp"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/ssd"
	traces "repro/internal/workload"
)

// A workload is one benchmark scenario. Its unit is one complete simulation
// (device workloads) or one pass over the quick figure set (the sweep); a
// timed run repeats the unit on freshly set-up state.
type workload struct {
	name string
	why  string
	// requests sizes one unit: host requests for a device workload, trace
	// requests per replay for the sweep.
	requests int
	// device is nil for the sweep.
	device *deviceSpec
}

// deviceSpec is one device simulation on ssd.ScaledConfig, warmed over its
// whole logical footprint with no churn. Flags left unset keep the
// pssdsim defaults, so every device workload is also a pssdsim command.
type deviceSpec struct {
	arch   ssd.Arch
	gc     ftl.GCMode
	policy ftl.AllocPolicy
	// preset is replayed open loop; empty selects closed-loop 64 KB random
	// reads with outstanding requests in flight.
	preset      string
	outstanding int
}

var workloads = []workload{
	{
		name:     "gc-write-bus",
		why:      "baseSSD/PaGC open-loop rocksdb-1: sustained GC write storm; host time is FTL allocation and stalled-write retry",
		requests: 14000,
		device:   &deviceSpec{arch: ssd.ArchBase, gc: ftl.GCParallel, policy: ftl.PCWD, preset: "rocksdb-1"},
	},
	{
		name:     "spgc-omnibus",
		why:      "pnSSD+split/SpGC open-loop rocksdb-0, the canonical headline run: event-bound, Omnibus grant retries",
		requests: 20000,
		device:   &deviceSpec{arch: ssd.ArchPnSSDSplit, gc: ftl.GCSpatial, policy: ftl.PCWD, preset: "rocksdb-0"},
	},
	{
		name:     "randread-omnibus",
		why:      "pnSSD+split/PWCD closed-loop random reads, no GC: read path and engine, allocation-bound, bypasses FTL writes",
		requests: 2_000_000,
		device:   &deviceSpec{arch: ssd.ArchPnSSDSplit, gc: ftl.GCNone, policy: ftl.PWCD, outstanding: 64},
	},
	{
		name:     "quick-sweep",
		why:      "the cmd/experiments -quick default figure set through internal/exp: many short device builds and runner parallelism",
		requests: 400,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// sweepParallel is the runner worker count of the sweep, fixed so the work
// split does not depend on the machine.
const sweepParallel = 2

// figure is one artifact of the quick sweep.
type figure struct {
	name string
	run  func(exp.Options) any
}

// quickFigures is the cmd/experiments -quick default set, in its order.
var quickFigures = []figure{
	{"table1", func(exp.Options) any { return exp.TableI() }},
	{"table2", func(o exp.Options) any {
		c := o.Cfg
		return []any{c.Channels, c.Ways, c.Geometry, c.Timing, c.BusMTps, c.LogicalUtilization}
	}},
	{"table3", func(exp.Options) any { return exp.TableIII() }},
	{"fig1", func(exp.Options) any { chip, bus := exp.Fig1(); return []any{chip, bus} }},
	{"fig3", func(o exp.Options) any { return exp.Fig3(o) }},
	{"fig4", func(o exp.Options) any { return exp.Fig4(o) }},
	{"fig6", func(o exp.Options) any { return exp.Fig6(*o.Cfg) }},
	{"fig8", func(exp.Options) any { return exp.Fig8() }},
	{"fig14", func(o exp.Options) any { rows := exp.Fig14(o); return []any{rows, exp.MeanImprovement(rows)} }},
	{"fig16", func(o exp.Options) any { return exp.Fig16(o) }},
	{"fig17", func(o exp.Options) any { return exp.Fig17(o) }},
	{"fig18", func(o exp.Options) any { return exp.Fig18(o) }},
	{"fig19", func(o exp.Options) any { return exp.Fig19(o) }},
	{"fig20a", func(o exp.Options) any { return exp.Fig20a(o) }},
	{"fig20b", func(o exp.Options) any { return exp.Fig20b(o) }},
	{"tenant", func(o exp.Options) any { return exp.TenantSweep(o) }},
}

// sweepOptions is exp.Quick with n trace requests per replay (Quick's
// 400) and n/5 closed-loop requests (Quick's 80). The experiment seed stays
// at cmd/experiments' default of 1: the sweep's work swings about twofold
// across experiment seeds (its GC figures hit write-stall storms on some),
// which would bury any change in host time, so the benchmark seed only
// permutes the order the figures run in.
func sweepOptions(n int) exp.Options {
	opt := exp.Quick()
	opt.TraceRequests = n
	opt.SyntheticRequests = max(n/5, 4)
	return opt
}

// setupTimes splits one set-up into its public calls.
type setupTimes struct {
	gen, build, warm time.Duration
}

func (t setupTimes) total() time.Duration { return t.gen + t.build + t.warm }

// instance is one set-up repeat of a workload, ready to run once.
type instance struct {
	w     workload
	n     int
	times setupTimes

	s     *ssd.SSD
	trace []host.Request         // open-loop arrivals
	gen   func(int) host.Request // closed-loop generator

	opt         exp.Options // sweep
	order       []int       // sweep: figure indices in run order
	sweepDigest string
}

// timed runs fn under a span and adds its wall time to *d.
func timed(sp *spans, name string, d *time.Duration, fn func()) {
	t := time.Now()
	sp.do(name, fn)
	*d += time.Since(t)
}

// setup builds one instance: input generation, ssd.New and Host.Warmup.
// hook, when non-nil, edits the device configuration first (observers).
// For the sweep, set-up builds and warms one device per Table III
// architecture and generates the sweep's traces; the sweep itself builds
// its own devices, so this is the per-device set-up cost it pays.
func (w workload) setup(seed int64, n int, hook func(*ssd.Config), sp *spans) *instance {
	in := &instance{w: w, n: n}
	if w.device == nil {
		in.opt = sweepOptions(n)
		in.order = rand.New(rand.NewSource(seed)).Perm(len(quickFigures))
		if hook != nil {
			hook(in.opt.Cfg)
		}
		for _, arch := range ssd.Archs {
			var s *ssd.SSD
			timed(sp, "ssd.New", &in.times.build, func() { s = ssd.New(arch, *in.opt.Cfg) })
			timed(sp, "Host.Warmup", &in.times.warm, func() { s.Host.Warmup(s.Config.LogicalPages()) })
		}
		timed(sp, "workload.Named", &in.times.gen, func() {
			for _, name := range in.opt.Traces {
				mustNamed(name, in.opt.Cfg.LogicalPages(), n, in.opt.Seed)
			}
		})
		return in
	}
	d := w.device
	cfg := ssd.ScaledConfig()
	cfg.FTL.GCMode = d.gc
	cfg.FTL.Policy = d.policy
	if d.gc != ftl.GCNone {
		cfg.LogicalUtilization = 0.75
	}
	if hook != nil {
		hook(&cfg)
	}
	foot := cfg.LogicalPages()
	if d.preset != "" {
		timed(sp, "workload.Named", &in.times.gen, func() { in.trace = mustNamed(d.preset, foot, n, seed).Requests })
	} else {
		timed(sp, "workload.Synthetic", &in.times.gen, func() { in.gen = traces.Synthetic(traces.RandRead, foot, 4, seed) })
	}
	timed(sp, "ssd.New", &in.times.build, func() { in.s = ssd.New(d.arch, cfg) })
	timed(sp, "Host.Warmup", &in.times.warm, func() { in.s.Host.Warmup(foot) })
	return in
}

func mustNamed(name string, foot int64, n int, seed int64) traces.Trace {
	tr, err := traces.Named(name, foot, n, seed)
	if err != nil {
		panic(err)
	}
	return tr
}

// outcome is what one unit produced, checked outside the timed region.
type outcome struct {
	attempted, failed int64
	digest            string
	err               error
}

// run is the timed region: first submit to drain for a device, every
// figure call for the sweep. It returns the figure timings of a sweep.
func (in *instance) run(sp *spans) map[string]float64 {
	if in.s == nil {
		return in.runSweep(sp)
	}
	if in.trace != nil {
		sp.do("Host.Replay", func() { in.s.Host.MustReplay(in.trace) })
	} else {
		sp.do("Host.RunClosedLoop", func() { in.s.Host.RunClosedLoop(in.gen, in.w.device.outstanding, in.n) })
	}
	sp.do("SSD.Run", func() { in.s.Run() })
	return nil
}

func (in *instance) runSweep(sp *spans) map[string]float64 {
	secs := make(map[string]float64, len(quickFigures))
	rows := make([]any, len(quickFigures))
	for _, i := range in.order {
		f := quickFigures[i]
		t := time.Now()
		sp.do("exp."+f.name, func() { rows[i] = f.run(in.opt) })
		secs[f.name] = time.Since(t).Seconds()
	}
	h := sha256.New()
	for i, f := range quickFigures {
		fmt.Fprintf(h, "%s %v\n", f.name, rows[i])
	}
	in.sweepDigest = fmt.Sprintf("%x", h.Sum(nil))[:16]
	return secs
}

// check verifies a finished unit: a device must have completed every
// request, drained, and kept a consistent mapping. The digest is the run
// summary with the event count zeroed, so a change that only removes
// events keeps it.
func (in *instance) check(sp *spans) outcome {
	out := outcome{attempted: in.w.ops(in.n)}
	if in.s == nil {
		out.digest = in.sweepDigest
		return out
	}
	sp.do("verify", func() {
		done := in.s.Metrics().TotalRequests()
		out.failed = out.attempted - done
		switch err := in.s.FTL.CheckConsistency(); {
		case err != nil:
			out.err = err
		case done != out.attempted || in.s.Host.InFlight() != 0:
			out.err = fmt.Errorf("%d of %d requests completed, %d in flight", done, out.attempted, in.s.Host.InFlight())
		}
		if out.err != nil {
			out.failed = out.attempted
		}
	})
	sp.do("SSD.Summarize", func() {
		sum := in.s.Summarize()
		sum.EventsFired = 0
		b, err := json.Marshal(sum)
		if err != nil {
			panic(err)
		}
		out.digest = fmt.Sprintf("%x", sha256.Sum256(b))[:16]
	})
	return out
}

// verify runs one unit with the invariant checker attached
// (ssd.Config.Check) and reports the first violation, a panic included,
// also on standard error. For the sweep every figure point runs under the
// checker.
func (w workload) verify(seed int64, n int) (out outcome) {
	defer func() {
		if v := recover(); v != nil {
			out = outcome{attempted: w.ops(n), failed: w.ops(n), err: fmt.Errorf("panic under the checker: %v", v)}
		}
		if out.err != nil {
			fmt.Fprintf(stderr, "%s: verification: %v\n", w.name, out.err)
		}
	}()
	in := w.setup(seed, n, func(c *ssd.Config) { c.Check = &check.Config{} }, nil)
	in.run(nil)
	out = in.check(nil)
	if out.err == nil && in.s != nil {
		if out.err = in.s.VerifyInvariants(); out.err != nil {
			out.failed = out.attempted
		}
	}
	return out
}

// ops is how many operations a unit of size n attempts: host requests, or
// the sweep's figure calls.
func (w workload) ops(n int) int64 {
	if w.device == nil {
		return int64(len(quickFigures))
	}
	return int64(n)
}

// simRequests is the unit's simulated host request count (device only).
func (in *instance) simRequests() int64 {
	if in.s == nil {
		return 0
	}
	return in.s.Metrics().TotalRequests()
}

// eventsSince returns the engine events a unit fired: the device engine's
// count, or the process-wide delta for the sweep's many engines.
func (in *instance) eventsSince(total0 int64) int64 {
	if in.s != nil {
		return in.s.Engine.EventsFired()
	}
	return sim.EventsFiredTotal() - total0
}
