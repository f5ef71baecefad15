package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/bus"
	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// tracedRun is the per-layer run of one workload, separate from the timed
// ones. It times the set-up calls, runs one plain unit as the baseline,
// then one traced unit under the CPU profiler with telemetry attached and
// reads every public counter; it adds the layer microbenchmarks and, on
// spgc-omnibus, the observer-overhead rows. Every per-layer metric is
// reported; one whose layer the workload does not exercise reads 0. The
// result carries the run's spans, rooted in one named after the workload.
func tracedRun(w workload, seed int64, n int) result {
	sp := newSpans(w.name + "/traced")
	var res result
	sp.do(w.name, func() { res = tracedSteps(w, seed, n, sp) })
	res.Spans = sp.list
	return res
}

func tracedSteps(w workload, seed int64, n int, sp *spans) result {
	res := result{Correct: true}
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}

	sp.do("setup", func() {
		var gen, build, warm []float64
		for i := 0; i < setupReps; i++ {
			t := timeSetup(w, seed, n, sp)
			gen = append(gen, ms(t.gen))
			build = append(build, ms(t.build))
			warm = append(warm, ms(t.warm))
		}
		m["workload.gen_ms"], m["ssd.new_ms"], m["host.warmup_ms"] = median(gen), median(build), median(warm)
	})

	var base baseline
	sp.do("baseline", func() {
		base = runBaseline(w, seed, n, m)
		res.record(base.out)
	})

	sp.do("traced", func() {
		in := w.setup(seed, n, func(c *ssd.Config) { c.Telemetry = &telemetry.Config{} }, sp)
		runtime.GC()
		var secs float64
		shares, err := profileCPU(func() {
			t := time.Now()
			in.run(sp)
			secs = time.Since(t).Seconds()
		})
		if err != nil {
			panic(err)
		}
		for b, v := range shares {
			m[b+".cpu_share"] = v
		}
		m["bench.trace_overhead_pct"] = pct(secs, base.secs)
		res.record(in.check(sp))
		if in.s != nil {
			deviceCounters(in.s, m)
		}
	})

	sp.do("micro", func() { microbenchmarks(m, sp) })

	if w.name == "spgc-omnibus" {
		sp.do("observers", func() { res.record(observerRows(w, seed, n, base, m, sp)) })
	}
	res.Metrics = metrics(m)
	return res
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func pct(v, base float64) float64 { return (v/base - 1) * 100 }

// baseline is the plain unit of a traced run.
type baseline struct {
	secs   float64
	events int64
	out    outcome
}

// runBaseline runs one plain unit and records the engine, runtime and
// runner figures of the untraced run; the peak resident set so far is the
// set-ups' and this unit's.
func runBaseline(w workload, seed int64, n int, m map[string]float64) baseline {
	in := w.setup(seed, n, nil, nil)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	total0, cpu0 := sim.EventsFiredTotal(), cpuSeconds()
	t := time.Now()
	figs := in.run(nil)
	secs := time.Since(t).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	events := in.eventsSince(total0)
	for name, s := range figs {
		m["exp."+name+"_s"] = s
	}
	m["sim.ns_per_event"] = secs * 1e9 / float64(events)
	m["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	m["runner.efficiency"] = cpu / (secs * float64(runtime.GOMAXPROCS(0)))
	m["runtime.peak_rss_mb"] = peakRSSMB()
	return baseline{secs: secs, events: events, out: in.check(nil)}
}

// deviceCounters reads the public counters of a finished traced device:
// FTL stats, Omnibus copy paths and grant wait, bus busy and wait, flash
// operation counts, host latency, and the telemetry phase attribution.
func deviceCounters(s *ssd.SSD, m map[string]float64) {
	st := s.FTL.Stats()
	m["ftl.write_stalls"] = float64(st.WriteStalls)
	m["ftl.gc_rounds"] = float64(st.GCRounds)
	m["ftl.gc_pages_copied"] = float64(st.GCPagesCopied)
	if st.HostWrites > 0 {
		m["ftl.waf"] = float64(st.HostWrites+st.GCPagesCopied) / float64(st.HostWrites)
	}
	if ob, ok := s.Fabric.(*controller.OmnibusFabric); ok {
		_, _, _, direct, relayed := ob.PathCounts()
		m["controller.direct_copies"], m["controller.relayed_copies"] = float64(direct), float64(relayed)
	}
	for _, k := range []struct{ kind, prefix string }{{trace.KindHChannel, "bus.h_"}, {trace.KindVChannel, "bus.v_"}} {
		var busy, wait, n float64
		for _, b := range s.Buses() {
			if b.Kind == k.kind {
				busy += b.Channel.Utilization()
				wait += b.Channel.MeanWait().Microseconds()
				n++
			}
		}
		if n > 0 {
			m[k.prefix+"busy_frac"], m[k.prefix+"wait_us"] = busy/n, wait/n
		}
	}
	sum := s.Summarize()
	m["flash.reads"], m["flash.programs"], m["flash.erases"] = float64(sum.FlashReads), float64(sum.FlashPrograms), float64(sum.FlashErases)
	comb := s.Metrics().Combined()
	m["host.sim_p50_us"] = comb.Percentile(50).Microseconds()
	m["host.sim_p99_us"] = comb.P99().Microseconds()
	m["host.sim_kiops"] = s.Metrics().KIOPS()

	tel := sum.Telemetry
	if wait, grants := tel.SeriesByName("grant_wait"), tel.SeriesByName("grants"); wait != nil && grants != nil {
		if g := total(grants.Values); g > 0 {
			m["controller.grant_wait_us"] = total(wait.Values) / g
		}
	}
	if tel != nil && tel.Requests > 0 {
		for _, p := range tel.Phases {
			name := "ssd.phase_" + strings.ReplaceAll(p.Phase, "-", "_") + "_us"
			if _, ok := m[name]; ok {
				m[name] += p.TotalUs / float64(tel.Requests)
			}
		}
	}
}

func total(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

// observerRows runs the spgc-omnibus unit once per passive observer,
// each alone, against the baseline: the cost of telemetry, the checker
// and the trace recorder. An observer that changes the event count is not
// passive and fails the row; so does a checker violation.
func observerRows(w workload, seed int64, n int, base baseline, m map[string]float64, sp *spans) outcome {
	out := outcome{}
	rows := []struct {
		name string
		hook func(*ssd.Config)
	}{
		{"telemetry", func(c *ssd.Config) { c.Telemetry = &telemetry.Config{} }},
		{"check", func(c *ssd.Config) { c.Check = &check.Config{} }},
		{"trace", func(c *ssd.Config) { c.Trace = &trace.Config{} }}, // last: its peak RSS is the largest
	}
	var extra int64
	for _, r := range rows {
		sp.do("observer."+r.name, func() {
			in := w.setup(seed, n, r.hook, nil)
			runtime.GC()
			t := time.Now()
			in.run(nil)
			m[r.name+".overhead_pct"] = pct(time.Since(t).Seconds(), base.secs)
			extra += abs(in.s.Engine.EventsFired() - base.events)
			o := in.check(nil)
			if o.err == nil {
				o.err = in.s.VerifyInvariants()
			}
			out.attempted++
			if o.err != nil {
				out.failed++
				out.err = fmt.Errorf("observer %s: %v", r.name, o.err)
			}
			if r.name == "trace" {
				m["trace.peak_rss_mb"] = peakRSSMB()
			}
		})
	}
	m["observers.extra_events"] = float64(extra)
	out.attempted++
	if extra != 0 {
		out.failed++
		out.err = fmt.Errorf("observers changed the event count by %d", extra)
	}
	return out
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// microBatch is the wall time one microbenchmark batch aims for.
var microBatch = 10 * time.Millisecond

// perOp times op in five batches of a size calibrated to microBatch and
// returns the median batch's nanoseconds and heap allocations per call.
func perOp(op func()) (ns, allocs float64) {
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if time.Since(t) >= microBatch || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var nss, als []float64
	for b := 0; b < 5; b++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(d.Nanoseconds())/float64(n))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(nss), median(als)
}

// microbenchmarks drive each layer's public API directly: engine
// schedule/pop, a timed resource hold, a bus transfer, a fabric page read
// per architecture, page writes under GC, and a host request.
func microbenchmarks(m map[string]float64, sp *spans) {
	nop := func() {}
	sp.do("micro.Engine.Schedule", func() {
		e := sim.NewEngine()
		const batch = 256
		ns, _ := perOp(func() {
			for i := 0; i < batch; i++ {
				e.Schedule(sim.Time(i*37%batch), nop)
			}
			e.Run()
		})
		m["sim.schedule_pop_ns"] = ns / batch
	})
	sp.do("micro.Resource.Use", func() {
		e := sim.NewEngine()
		r := sim.NewResource(e, "hold")
		m["sim.hold_ns"], m["sim.hold_allocs"] = perOp(func() { r.Use(10, nil); e.Run() })
	})
	sp.do("micro.Channel.UseOp", func() {
		e := sim.NewEngine()
		c := bus.NewChannel(e, "h0", 8, 1000)
		d := c.TimeForBytes(16384)
		m["bus.xfer_ns"], _ = perOp(func() { c.UseOp("read-xfer", d, nil); e.Run() })
	})
	for _, arch := range ssd.Archs {
		sp.do("micro.Fabric.Read/"+archLabel(arch), func() {
			s := ssd.New(arch, ssd.ScaledConfig())
			s.Host.Warmup(s.Config.LogicalPages())
			const pages = 256
			var ids [pages]controller.ChipID
			var ppas [pages][]flash.PPA
			for i := range ids {
				id, ppa, _ := s.FTL.Map(int64(i))
				ids[i], ppas[i] = id, []flash.PPA{ppa}
			}
			k := 0
			m["controller.read_ns."+archLabel(arch)], _ = perOp(func() {
				k = (k + 1) % pages
				s.Fabric.Read(ids[k], ppas[k], nop)
				s.Engine.Run()
			})
		})
	}
	sp.do("micro.FTL.Write", func() {
		// Page writes under GC: random overwrites in drained bursts on a
		// baseSSD/PaGC device whose warm-up also overwrote half its
		// headroom (the experiments' GC set-up), so blocks carry invalid
		// pages; each burst pays for the collection rounds it triggers.
		// Draining single writes instead would start a round per write,
		// and a 2x2 array keeps a round to about a hundred page copies
		// (64 chips copy thousands, so a batch would hold one burst).
		cfg := ssd.ScaledConfig()
		cfg.Channels, cfg.Ways = 2, 2
		cfg.FTL.GCMode = ftl.GCParallel
		cfg.LogicalUtilization = 0.75
		s := ssd.New(ssd.ArchBase, cfg)
		foot := s.Config.LogicalPages()
		s.Host.Warmup(foot)
		versions := make([]int64, foot)
		rng := rand.New(rand.NewSource(1))
		overwrite := func(write func(lpn int64, tok flash.Token)) {
			lpn := rng.Int63n(foot)
			versions[lpn]++
			write(lpn, ftl.TokenFor(lpn, versions[lpn]))
		}
		for i := int64(0); i < (s.Config.RawPages()-foot)/2; i++ {
			overwrite(s.FTL.Reinstall)
		}
		const burst = 64
		ns, _ := perOp(func() {
			for i := 0; i < burst; i++ {
				overwrite(func(lpn int64, tok flash.Token) { s.FTL.Write([]int64{lpn}, []flash.Token{tok}, nop) })
			}
			s.Engine.Run()
		})
		m["ftl.write_ns_gc"] = ns / burst
	})
	sp.do("micro.Host.Submit", func() {
		s := ssd.New(ssd.ArchBase, ssd.ScaledConfig())
		foot := s.Config.LogicalPages()
		s.Host.Warmup(foot)
		var lpn int64
		m["host.submit_ns"], _ = perOp(func() {
			lpn = (lpn + 7) % foot
			if err := s.Host.Submit(host.Request{Arrival: s.Engine.Now(), Kind: stats.Read, LPN: lpn, Pages: 1}, nil); err != nil {
				panic(err)
			}
			s.Engine.Run()
		})
	})
}
