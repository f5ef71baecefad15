package exp

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// The ablations quantify the design choices the paper makes or discusses:
// how the packetized bandwidth is partitioned between the h and v
// dimensions, whether the adaptive path choice matters, how sensitive the
// control plane is to SoC latency, how large the GC group should be
// (Sec VI-A discusses 1/4 vs 1/2), and how the Omnibus organization
// scales to non-square grids (Sec V-E).

// AblationRow is one configuration's result.
type AblationRow struct {
	Name    string
	Latency sim.Time
	P99     sim.Time
	Detail  string
}

// pnSSDTraceRun builds a pnSSD variant of cfg via mk, replays a trace,
// and returns metrics.
func pnSSDTraceRun(opt Options, cfg ssd.Config, mode ftl.GCMode, trace string, churn bool, mk ssd.FabricFunc) (*ssd.SSD, AblationRow) {
	cfg.FTL.GCMode = mode
	s := ssd.NewCustom(ssd.ArchPnSSD, cfg, mk)
	replay(s, opt, churn, trace)
	m := s.Metrics()
	return s, AblationRow{Latency: m.MeanLatency(), P99: m.Combined().P99()}
}

// AblationVWidth sweeps the v-channel width while holding the h-channel
// at 8 bits: how much of the packetized bandwidth budget should the
// vertical dimension get?
func AblationVWidth(opt Options) []AblationRow {
	opt = opt.withDefaults()
	widths := []int{2, 4, 8, 16}
	return runner.MapDefault(len(widths), func(i int) AblationRow {
		vBits := widths[i]
		_, row := pnSSDTraceRun(opt, *opt.Cfg, ftl.GCNone, "exchange-1", false,
			func(eng *sim.Engine, grid *controller.Grid, soc *controller.Soc, pageSize int) controller.Fabric {
				return controller.NewOmnibusFabric(eng, "pnssd", grid, soc, pageSize, 8, vBits, opt.Cfg.BusMTps, true, false)
			})
		row.Name = fmt.Sprintf("v-width %d bits", vBits)
		row.Detail = "h fixed at 8 bits, exchange-1, no GC"
		return row
	})
}

// AblationRouting compares h-only routing, greedy adaptive, and
// adaptive+split on the imbalanced trace.
func AblationRouting(opt Options) []AblationRow {
	opt = opt.withDefaults()
	type variant struct {
		name  string
		split bool
		route controller.RoutePolicy
	}
	variants := []variant{
		{"h-only (no path diversity)", false, controller.RouteHOnly},
		{"greedy (paper)", false, controller.RouteGreedy},
		{"greedy + split (paper)", true, controller.RouteGreedy},
		{"join-shortest-queue (future work)", false, controller.RouteJSQ},
		{"JSQ + split", true, controller.RouteJSQ},
	}
	return runner.MapDefault(len(variants), func(i int) AblationRow {
		v := variants[i]
		_, row := pnSSDTraceRun(opt, *opt.Cfg, ftl.GCNone, "search-0", false,
			func(eng *sim.Engine, grid *controller.Grid, soc *controller.Soc, pageSize int) controller.Fabric {
				f := controller.NewOmnibusFabric(eng, "pnssd", grid, soc, pageSize, 8, 8, opt.Cfg.BusMTps, true, v.split)
				f.SetRoutePolicy(v.route)
				return f
			})
		row.Name = v.name
		row.Detail = "search-0 (extreme read skew), no GC"
		return row
	})
}

// AblationEccFallback sweeps the on-die ECC failure rate of direct
// flash-to-flash copies (the hybrid-ECC design of Sec VIII): every
// flagged page re-routes through the controller's strong LDPC, eroding
// the isolation SpGC buys.
func AblationEccFallback(opt Options) []AblationRow {
	opt = opt.withDefaults()
	rates := []float64{0, 0.01, 0.1, 0.5, 1.0}
	return runner.MapDefault(len(rates), func(i int) AblationRow {
		rate := rates[i]
		cfg := gcCfg(opt)
		cfg.Fault = &fault.Config{Seed: 1, OnDieECCRate: rate}
		s, row := pnSSDTraceRun(opt, cfg, ftl.GCSpatial, "rocksdb-0", true,
			func(eng *sim.Engine, grid *controller.Grid, soc *controller.Soc, pageSize int) controller.Fabric {
				return controller.NewOmnibusFabric(eng, "pnssd", grid, soc, pageSize, 8, 8, opt.Cfg.BusMTps, true, false)
			})
		row.Name = fmt.Sprintf("on-die ECC fail %.0f%%", rate*100)
		row.Detail = fmt.Sprintf("rocksdb-0 + SpGC, %d copies relayed for strong ECC", s.Fabric.(*controller.OmnibusFabric).EccFallbacks())
		return row
	})
}

// AblationCtrlLatency sweeps the control-plane message latency: how slow
// can the controller-to-controller request/grant path get before the
// v-channel stops paying off?
func AblationCtrlLatency(opt Options) []AblationRow {
	opt = opt.withDefaults()
	lats := []sim.Time{0, 100 * sim.Nanosecond, 500 * sim.Nanosecond, 2 * sim.Microsecond, 10 * sim.Microsecond}
	return runner.MapDefault(len(lats), func(i int) AblationRow {
		d := lats[i]
		_, row := pnSSDTraceRun(opt, *opt.Cfg, ftl.GCNone, "exchange-1", false,
			func(eng *sim.Engine, grid *controller.Grid, soc *controller.Soc, pageSize int) controller.Fabric {
				soc.SetCtrlMsgLatency(d)
				return controller.NewOmnibusFabric(eng, "pnssd", grid, soc, pageSize, 8, 8, opt.Cfg.BusMTps, true, true)
			})
		row.Name = fmt.Sprintf("ctrl msg %v", d)
		row.Detail = "exchange-1, adaptive+split"
		return row
	})
}

// AblationGCGroup sweeps the SpGC GC-group fraction (Sec VI-A: a 1/4
// group trades more frequent collection for better read isolation).
func AblationGCGroup(opt Options) []AblationRow {
	opt = opt.withDefaults()
	fracs := []float64{0.25, 0.5, 0.75}
	return runner.MapDefault(len(fracs), func(i int) AblationRow {
		frac := fracs[i]
		cfg := gcCfg(opt)
		cfg.FTL.GCMode = ftl.GCSpatial
		cfg.FTL.GCGroupFraction = frac
		s := build(ssd.ArchPnSSDSplit, cfg, ftl.GCSpatial, ftl.PCWD)
		replay(s, opt, true, "rocksdb-0")
		m := s.Metrics()
		st := s.FTL.Stats()
		return AblationRow{
			Name:    fmt.Sprintf("GC group %.0f%%", frac*100),
			Latency: m.MeanLatency(),
			P99:     m.Combined().P99(),
			Detail:  fmt.Sprintf("rocksdb-0, %d GC rounds, %d copies", st.GCRounds, st.GCPagesCopied),
		}
	})
}

// AblationOrganization compares square and non-square Omnibus grids at a
// constant 64-chip budget (Sec V-E scaling).
func AblationOrganization(opt Options) []AblationRow {
	opt = opt.withDefaults()
	orgs := []struct{ ch, ways int }{{4, 16}, {8, 8}, {16, 4}}
	return runner.MapDefault(len(orgs), func(i int) AblationRow {
		org := orgs[i]
		cfg := *opt.Cfg
		cfg.Channels, cfg.Ways = org.ch, org.ways
		s := build(ssd.ArchPnSSDSplit, cfg, ftl.GCNone, ftl.PCWD)
		replay(s, opt, false, "exchange-1")
		m := s.Metrics()
		omni := s.Fabric.(*controller.OmnibusFabric)
		return AblationRow{
			Name:    fmt.Sprintf("%d channels x %d ways", org.ch, org.ways),
			Latency: m.MeanLatency(),
			P99:     m.Combined().P99(),
			Detail:  fmt.Sprintf("%d v-channels, %d columns each", omni.NumVChannels(), omni.ColumnsPerVChannel()),
		}
	})
}

// AblationVictimPolicy compares greedy and cost-benefit victim selection
// under skewed churn: cost-benefit should reclaim at equal or lower copy
// cost by preferring cold, low-valid blocks.
func AblationVictimPolicy(opt Options) []AblationRow {
	opt = opt.withDefaults()
	policies := []ftl.VictimPolicy{ftl.VictimGreedy, ftl.VictimCostBenefit}
	return runner.MapDefault(len(policies), func(i int) AblationRow {
		vp := policies[i]
		cfg := gcCfg(opt)
		cfg.FTL.GCMode = ftl.GCParallel
		cfg.FTL.Victim = vp
		s := build(ssd.ArchPnSSDSplit, cfg, ftl.GCParallel, ftl.PCWD)
		warm(s, opt, false)
		// Hot/cold overwrite stream: 90% of writes hit 5% of the space, the
		// regime where age-aware cleaning avoids re-copying hot data. Warm-up
		// churn is skipped so block ages come entirely from the run itself.
		tr := workload.Generate("hotcold", workload.Params{
			ReadRatio:  0.05,
			ZipfS:      1.6,
			HotRegions: 16,
			ReqPages:   2,
			MeanGap:    40 * sim.Microsecond,
			Burst:      4,
		}, s.Config.LogicalPages(), opt.TraceRequests*2, opt.Seed)
		s.Host.MustReplay(tr.Requests)
		s.Run()
		m := s.Metrics()
		st := s.FTL.Stats()
		perBlock := 0.0
		if st.GCBlocksErased > 0 {
			perBlock = float64(st.GCPagesCopied) / float64(st.GCBlocksErased)
		}
		return AblationRow{
			Name:    vp.String(),
			Latency: m.MeanLatency(),
			P99:     m.Combined().P99(),
			Detail:  fmt.Sprintf("hot/cold writes + PaGC, %.1f copies per reclaimed block", perBlock),
		}
	})
}
