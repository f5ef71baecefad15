package exp

import (
	"repro/internal/bus"
	"repro/internal/controller"
	"repro/internal/ftl"
	"repro/internal/mesh"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// ContentionRow summarizes queueing on one architecture's channels under
// a loaded skewed workload: where requests actually wait, the analysis
// behind the paper's "the flash channel is the bottleneck" claim and its
// NoSSD edge-congestion observation.
type ContentionRow struct {
	Arch        ssd.Arch
	MeanLatency sim.Time
	// HMeanWait and HMaxWait aggregate queueing delay on the h-channels
	// (or, for the mesh, the controller-adjacent ejection links).
	HMeanWait sim.Time
	HMaxWait  sim.Time
	// VMeanWait aggregates the v-channels (zero without v-channels).
	VMeanWait sim.Time
	// BusiestUtil is the highest single-channel lifetime utilization.
	BusiestUtil float64
}

// Contention replays the most read-skewed trace at full intensity on each
// architecture and reports where time is spent queueing.
func Contention(opt Options) []ContentionRow {
	opt = opt.withDefaults()
	archs := []ssd.Arch{ssd.ArchBase, ssd.ArchPSSD, ssd.ArchPnSSD, ssd.ArchPnSSDSplit, ssd.ArchNoSSDPin}
	return runner.MapDefault(len(archs), func(i int) ContentionRow {
		arch := archs[i]
		return onDevice(opt, arch, withFTL(*opt.Cfg, ftl.GCNone, ftl.PCWD), func(s *ssd.SSD) ContentionRow {
			replay(s, opt, false, "search-0")

			row := ContentionRow{Arch: arch, MeanLatency: s.Metrics().MeanLatency()}
			scan := func(chs []*bus.Channel) (mean, max sim.Time, util float64) {
				var totalWait sim.Time
				var n int
				for _, ch := range chs {
					totalWait += ch.MeanWait()
					n++
					if ch.MaxWait() > max {
						max = ch.MaxWait()
					}
					if u := ch.Utilization(); u > util {
						util = u
					}
				}
				if n > 0 {
					mean = totalWait / sim.Time(n)
				}
				return mean, max, util
			}
			if fab, ok := s.Fabric.(*controller.MeshFabric); ok {
				m := fab.Mesh()
				var chs []*bus.Channel
				for y := 0; y < s.Config.Channels; y++ {
					edge, ctrl := mesh.Node{X: 0, Y: y}, mesh.Controller(y)
					chs = append(chs, m.Link(edge, ctrl), m.Link(ctrl, edge))
				}
				row.HMeanWait, row.HMaxWait, row.BusiestUtil = scan(chs)
				return row
			}
			var hs, vs []*bus.Channel
			for _, b := range s.Buses() {
				switch b.Kind {
				case trace.KindHChannel:
					hs = append(hs, b.Channel)
				case trace.KindVChannel:
					vs = append(vs, b.Channel)
				}
			}
			var vMax sim.Time
			var vUtil float64
			row.HMeanWait, row.HMaxWait, row.BusiestUtil = scan(hs)
			row.VMeanWait, vMax, vUtil = scan(vs)
			if vMax > row.HMaxWait {
				row.HMaxWait = vMax
			}
			if vUtil > row.BusiestUtil {
				row.BusiestUtil = vUtil
			}
			return row
		})
	})
}
