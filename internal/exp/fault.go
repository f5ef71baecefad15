package exp

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
)

// FaultSweepRow is one (architecture, fault rate) point of the
// degraded-mode sweep.
type FaultSweepRow struct {
	Arch       ssd.Arch
	ReadECC    float64 // transient read-ECC fail rate
	Latency    sim.Time
	P99        sim.Time
	KIOPS      float64
	RAS        *stats.RAS
	Consistent bool // ftl.CheckConsistency after the faulted run
	Completed  bool // every request of the trace finished
}

// FaultSweep replays a GC-heavy trace on every architecture at
// increasing transient read-ECC rates while forcing at least two program
// failures and one erase failure per chip — the graceful-degradation
// acceptance run. Every row must complete its trace and pass the FTL
// consistency check; the RAS counters quantify the recovery work.
func FaultSweep(opt Options) []FaultSweepRow {
	opt = opt.withDefaults()
	rates := []float64{0, 0.005, 0.01}
	return runner.MapDefault(len(ssd.Archs)*len(rates), func(i int) FaultSweepRow {
		arch, rate := ssd.Archs[i/len(rates)], rates[i%len(rates)]
		cfg := gcCfg(opt)
		cfg.FTL.GCMode = ftl.GCParallel
		cfg.Fault = &fault.Config{
			Seed:                uint64(opt.Seed),
			ReadECCRate:         rate,
			OnDieECCRate:        rate,
			ProgramFailsPerChip: 2,
			EraseFailsPerChip:   1,
		}
		return onDevice(opt, arch, cfg, func(s *ssd.SSD) FaultSweepRow {
			replay(s, opt, true, "rocksdb-0")
			m := s.Metrics()
			return FaultSweepRow{
				Arch:       arch,
				ReadECC:    rate,
				Latency:    m.MeanLatency(),
				P99:        m.Combined().P99(),
				KIOPS:      m.KIOPS(),
				RAS:        s.RAS(),
				Consistent: s.FTL.CheckConsistency() == nil,
				Completed:  s.Host.InFlight() == 0,
			}
		})
	})
}

// DegradedRow is one interconnect-degradation scenario on pnSSD+split.
type DegradedRow struct {
	Name       string
	Latency    sim.Time
	P99        sim.Time
	KIOPS      float64
	Delta      float64 // KIOPS relative to the healthy baseline - 1
	RAS        *stats.RAS
	Consistent bool
	Completed  bool
}

// DegradedSweep measures pnSSD+split with SpGC under interconnect
// faults: a lossy control plane (grant drops resolved by timeout/retry/
// failover) and each v-channel killed in turn, which forces degraded-mode
// routing — reads return over the row's h-channel and SpGC copies relay
// through the controller. Throughput must degrade, never deadlock.
func DegradedSweep(opt Options) []DegradedRow {
	opt = opt.withDefaults()

	run := func(name string, fc fault.Config) DegradedRow {
		cfg := gcCfg(opt)
		cfg.FTL.GCMode = ftl.GCSpatial
		fc.Seed = uint64(opt.Seed)
		cfg.Fault = &fc
		return onDevice(opt, ssd.ArchPnSSDSplit, cfg, func(s *ssd.SSD) DegradedRow {
			replay(s, opt, true, "rocksdb-0")
			m := s.Metrics()
			return DegradedRow{
				Name:       name,
				Latency:    m.MeanLatency(),
				P99:        m.Combined().P99(),
				KIOPS:      m.KIOPS(),
				RAS:        s.RAS(),
				Consistent: s.FTL.CheckConsistency() == nil,
				Completed:  s.Host.InFlight() == 0,
			}
		})
	}

	type scenario struct {
		name string
		fc   fault.Config
	}
	scenarios := []scenario{
		{"healthy baseline", fault.Config{}},
		{"grant drop 10%", fault.Config{GrantDropRate: 0.1}},
	}
	numV := opt.Cfg.Channels
	if opt.Cfg.Ways < numV {
		numV = opt.Cfg.Ways
	}
	for v := 0; v < numV; v++ {
		scenarios = append(scenarios, scenario{fmt.Sprintf("v-channel %d dead", v),
			fault.Config{DeadVChannels: []int{v}}})
	}
	rows := runner.MapDefault(len(scenarios), func(i int) DegradedRow {
		return run(scenarios[i].name, scenarios[i].fc)
	})
	base := rows[0].KIOPS
	for i := range rows {
		if base > 0 {
			rows[i].Delta = rows[i].KIOPS/base - 1
		}
	}
	return rows
}
