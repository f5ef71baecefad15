// Command sweep runs one-dimensional parameter sweeps and emits CSV
// series suitable for plotting: mean and tail latency versus outstanding
// I/O depth, bus rate, way count, or request size, for any architecture.
// Points fan out across -parallel workers (default GOMAXPROCS) and the
// CSV rows print in sweep order regardless of the worker count.
//
//	go run ./cmd/sweep -param outstanding -arch pnssd+split
//	go run ./cmd/sweep -param busrate -arch base -pattern rand-read
//	go run ./cmd/sweep -param ways -arch pnssd -parallel 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/array"
	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

func main() {
	param := flag.String("param", "outstanding", "sweep dimension: outstanding, busrate, ways, reqpages, tenants, sched, mapcache, rebuildrate")
	archFlag := flag.String("arch", "pnssd+split", "architecture (comma list allowed)")
	patternFlag := flag.String("pattern", "rand-read", "synthetic pattern")
	arbiterFlag := flag.String("arbiter", "rr", "queue arbiter for the tenants sweep: rr, wrr, dwrr")
	preset := flag.String("preset", "rocksdb-0", "per-tenant workload preset for the tenants sweep")
	requests := flag.Int("requests", 300, "requests per point")
	outstanding := flag.Int("outstanding", 16, "outstanding depth (fixed dims; front-end inflight cap for tenants)")
	seed := flag.Int64("seed", 1, "workload seed")
	parallel := flag.Int("parallel", runner.Default(), "worker count for sweep points (1 = sequential)")
	progress := flag.Bool("progress", false, "print completed-jobs / event-rate / ETA lines to stderr while the sweep runs")
	cpuProf := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()
	if err := checkCounts(*requests, *outstanding); err != nil {
		fatalf("%v", err)
	}
	runner.SetDefault(*parallel)
	if *progress {
		runner.EnableProgress(os.Stderr, sim.EventsFiredTotal)
	}

	p, err := workload.ParsePattern(*patternFlag)
	if err != nil {
		fatalf("%v", err)
	}
	var archs []ssd.Arch
	for _, name := range strings.Split(*archFlag, ",") {
		a, err := ssd.ParseArch(name)
		if err != nil {
			fatalf("%v", err)
		}
		archs = append(archs, a)
	}

	// The rebuild-rate sweep runs whole erasure-coded arrays rather than
	// single devices, so it prints its own CSV schema and returns.
	if strings.ToLower(*param) == "rebuildrate" {
		runRebuildRateSweep(archs, *requests, *seed)
		return
	}

	type point struct {
		x       int
		mk      func() ssd.Config
		outs    int
		req     int
		tenants int    // > 0 selects the multi-tenant open-loop path
		sched   string // non-empty selects a controller scheduling policy
		mapping string // non-empty labels the FTL mapping mode
	}
	var pts []point
	base := ssd.ScaledConfig
	switch strings.ToLower(*param) {
	case "outstanding":
		for _, o := range []int{1, 2, 4, 8, 16, 32, 64} {
			o := o
			pts = append(pts, point{x: o, mk: base, outs: o, req: 4})
		}
	case "busrate":
		for _, r := range []int{500, 750, 1000, 1500, 2000} {
			r := r
			pts = append(pts, point{x: r, mk: func() ssd.Config {
				c := base()
				c.BusMTps = r
				return c
			}, outs: *outstanding, req: 4})
		}
	case "ways":
		for _, w := range []int{2, 4, 8, 16} {
			w := w
			pts = append(pts, point{x: w, mk: func() ssd.Config {
				c := base()
				c.Ways = w
				return c
			}, outs: *outstanding, req: 4})
		}
	case "reqpages":
		for _, n := range []int{1, 2, 4, 8, 16} {
			n := n
			pts = append(pts, point{x: n, mk: base, outs: *outstanding, req: n})
		}
	case "sched":
		// One point per controller scheduling policy; x is the policy's
		// ordinal so the CSV stays numeric in the x column.
		for i, pol := range controller.SchedPolicyNames() {
			i, pol := i, pol
			pts = append(pts, point{x: i, mk: func() ssd.Config {
				c := base()
				c.Scheduler = pol
				return c
			}, outs: *outstanding, req: 4, sched: pol})
		}
	case "mapcache":
		// x is the map-cache capacity in translation-page entries; 0 is
		// the flat-mapping baseline (no map unit at all).
		for _, n := range []int{0, 8, 16, 32, 64, 128} {
			n := n
			mode := "fmmu"
			if n == 0 {
				mode = "flat"
			}
			pts = append(pts, point{x: n, mk: func() ssd.Config {
				c := base()
				c.Mapping = mode
				c.MapCacheEntries = n
				return c
			}, outs: *outstanding, req: 4, mapping: mode})
		}
	case "tenants":
		if _, err := host.NewArbiter(*arbiterFlag); err != nil {
			fatalf("%v", err)
		}
		for _, n := range []int{1, 2, 3, 4} {
			n := n
			pts = append(pts, point{x: n, mk: base, outs: *outstanding, tenants: n})
		}
	default:
		fatalf("unknown sweep parameter %q", *param)
	}

	stop, err := runner.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fatalf("%v", err)
	}
	defer stop()

	// Every (arch, point) simulation is independent; fan them out and
	// print the CSV rows afterwards in sweep order so output is
	// byte-identical at any parallelism.
	rows := runner.MapDefault(len(archs)*len(pts), func(i int) string {
		arch, pt := archs[i/len(pts)], pts[i%len(pts)]
		cfg := pt.mk()
		cfg.FTL.GCMode = ftl.GCNone
		label := p.String()
		if pt.sched != "" {
			label = p.String() + "/" + pt.sched
		}
		if pt.mapping != "" {
			label = p.String() + "/" + pt.mapping
		}
		if pt.tenants > 0 {
			// Tenant-count sweep: N identical preset tenants on partitioned
			// footprints replay open-loop through the multi-queue front end
			// with the chosen arbiter; requests split evenly across tenants.
			label = *preset + "/" + *arbiterFlag
			specs := make([]workload.TenantSpec, pt.tenants)
			per := *requests / pt.tenants
			if per < 1 {
				per = 1
			}
			for t := range specs {
				specs[t] = workload.TenantSpec{
					Name: fmt.Sprintf("t%d", t), Preset: *preset,
					Requests: per, Weight: 1 + t,
				}
			}
			cfg.Frontend = &host.FrontendConfig{
				Tenants:     workload.QueueConfigs(specs),
				Arbiter:     *arbiterFlag,
				MaxInflight: pt.outs,
			}
			s := ssd.New(arch, cfg)
			foot := s.Config.LogicalPages()
			s.Host.Warmup(foot)
			tr, err := workload.GenerateTenants(specs, foot, *seed)
			if err != nil {
				panic(err)
			}
			if _, err := s.Frontend.Replay(tr.Requests); err != nil {
				panic(err)
			}
			s.Run()
			m := s.Metrics()
			return fmt.Sprintf("%s,%s,%s,%d,%.2f,%.2f,%.1f",
				*param, arch, label, pt.x,
				m.MeanLatency().Microseconds(),
				m.Combined().P99().Microseconds(),
				m.KIOPS())
		}
		s := ssd.New(arch, cfg)
		foot := s.Config.LogicalPages()
		s.Host.Warmup(foot)
		gen := workload.Synthetic(p, foot, pt.req, *seed)
		s.Host.RunClosedLoop(gen, pt.outs, *requests)
		s.Run()
		m := s.Metrics()
		return fmt.Sprintf("%s,%s,%s,%d,%.2f,%.2f,%.1f",
			*param, arch, label, pt.x,
			m.MeanLatency().Microseconds(),
			m.Combined().P99().Microseconds(),
			m.KIOPS())
	})
	fmt.Printf("param,arch,pattern,x,mean_us,p99_us,kiops\n")
	for _, row := range rows {
		fmt.Println(row)
	}
}

// runRebuildRateSweep replays a mixed trace on a 2-group 2+1 array with
// one mid-trace device kill, sweeping the rebuild throttle: faster
// rebuild shortens the re-protection window but steals more device
// bandwidth from foreground I/O.
func runRebuildRateSweep(archs []ssd.Arch, requests int, seed int64) {
	rates := []int{50_000, 100_000, 200_000, 400_000, 800_000}
	rows := runner.MapDefault(len(archs)*len(rates), func(i int) string {
		arch, rate := archs[i/len(rates)], rates[i%len(rates)]
		dc := ssd.ScaledConfig()
		dc.Channels, dc.Ways = 2, 2
		dc.Geometry.Planes = 2
		dc.Geometry.BlocksPerPlane = 8
		dc.Geometry.PagesPerBlock = 16
		dc.LogicalUtilization = 0.75
		dc.FTL.GCMode = ftl.GCSpatial
		cfg := array.Config{
			Arch:   arch,
			Device: dc,
			Data:   2, Parity: 1,
			Groups:             2,
			Spares:             1,
			Seed:               seed,
			ChurnFraction:      0.5,
			RebuildPagesPerSec: rate,
		}
		tr, err := workload.Named("rocksdb-0", cfg.LogicalPages(), requests, seed)
		if err != nil {
			panic(err)
		}
		quarter := tr.Requests[len(tr.Requests)/4].Arrival
		cfg.Failures = []fault.DeviceEvent{{Device: 0, At: quarter}}
		res := array.Run(cfg, tr.Requests, 1)
		if err := res.Err(); err != nil {
			panic(err)
		}
		m := res.Metrics
		return fmt.Sprintf("rebuildrate,%s,rocksdb-0,%d,%.2f,%.2f,%.1f,%.2f,%d,%d",
			arch, rate,
			m.MeanLatency().Microseconds(),
			m.Combined().P99().Microseconds(),
			m.KIOPS(),
			res.RebuildTime.Milliseconds(),
			res.RAS.DegradedReads,
			res.RAS.FailedReads)
	})
	fmt.Printf("param,arch,workload,rate_pps,mean_us,p99_us,kiops,rebuild_ms,degraded_reads,failed_reads\n")
	for _, row := range rows {
		fmt.Println(row)
	}
}

// checkCounts rejects request and outstanding counts the simulator
// cannot run, so bad input exits with a message instead of a panic
// inside a sweep worker.
func checkCounts(requests, outstanding int) error {
	if requests <= 0 {
		return fmt.Errorf("-requests must be positive, got %d", requests)
	}
	if outstanding <= 0 {
		return fmt.Errorf("-outstanding must be positive, got %d", outstanding)
	}
	return nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
