package fault_test

import (
	"testing"

	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
)

// A read that hits BOTH a kill-switched v-channel and a full ECC retry
// ladder must take the degraded h-route exactly once: the ladder
// re-senses on the die and never re-issues the fabric return, so the two
// recovery mechanisms compose without double-retrying the transfer. The
// counters pin the exact interaction — one degraded return, one relay,
// and ReadRetryMax re-senses per read — for both Omnibus architectures.
func TestKillSwitchAndRetryLadderComposeOnce(t *testing.T) {
	const n = 32
	for _, arch := range []ssd.Arch{ssd.ArchPnSSD, ssd.ArchPnSSDSplit} {
		t.Run(arch.String(), func(t *testing.T) {
			cfg := ssd.ScaledConfig()
			cfg.Geometry.BlocksPerPlane = 8
			cfg.Geometry.PagesPerBlock = 16
			// Every v-channel dead (numV = min(channels, ways)) and every
			// first sense failing ECC: each read exercises both paths.
			numV := cfg.Channels
			if cfg.Ways < numV {
				numV = cfg.Ways
			}
			dead := make([]int, numV)
			for i := range dead {
				dead[i] = i
			}
			cfg.Fault = &fault.Config{Seed: 1, ReadECCRate: 1.0, DeadVChannels: dead}

			s := ssd.New(arch, cfg)
			foot := s.Config.LogicalPages()
			s.Host.Warmup(foot)
			reqs := make([]host.Request, n)
			for i := range reqs {
				reqs[i] = host.Request{
					Arrival: sim.Time(i) * 50 * sim.Microsecond,
					Kind:    stats.Read,
					LPN:     int64(i) * (foot / n),
					Pages:   1,
				}
			}
			s.Host.MustReplay(reqs)
			s.Run()
			if got := s.Metrics().TotalRequests(); got != n {
				t.Fatalf("completed %d/%d reads", got, n)
			}

			ras := s.RAS()
			// On-die ladder: every read faults, burns the full ladder, and
			// escalates to the strong-ECC relay exactly once.
			if ras.ReadFaults != n || ras.ReadRelays != n {
				t.Fatalf("ReadFaults=%d ReadRelays=%d, want %d/%d", ras.ReadFaults, ras.ReadRelays, n, n)
			}
			if ras.ReadRetries != n*fault.ReadRetryMax {
				t.Fatalf("ReadRetries = %d, want %d", ras.ReadRetries, n*fault.ReadRetryMax)
			}
			// Fabric route: the degraded h-return fires once per read — the
			// ladder must not re-issue the transfer and re-count the route.
			if ras.DegradedReturns != n {
				t.Fatalf("DegradedReturns = %d, want %d (double-retry?)", ras.DegradedReturns, n)
			}
			ob := s.Fabric.(*controller.OmnibusFabric)
			h, v, split, _, _ := ob.PathCounts()
			if h != n || v != 0 || split != 0 {
				t.Fatalf("returns h=%d v=%d split=%d, want %d/0/0", h, v, split, n)
			}
		})
	}
}
