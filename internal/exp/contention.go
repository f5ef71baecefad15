package exp

import (
	"repro/internal/bus"
	"repro/internal/controller"
	"repro/internal/ftl"
	"repro/internal/mesh"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
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
	// VMeanWait aggregates the v-channels (zero for non-Omnibus fabrics).
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
		s := build(arch, *opt.Cfg, ftl.GCNone, ftl.PCWD)
		replay(s, opt, 0, "search-0")

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
		switch fab := s.Fabric.(type) {
		case *controller.BusFabric:
			var chs []*bus.Channel
			for ch := 0; ch < s.Config.Channels; ch++ {
				chs = append(chs, fab.Channel(ch))
			}
			row.HMeanWait, row.HMaxWait, row.BusiestUtil = scan(chs)
		case *controller.OmnibusFabric:
			var hs, vs []*bus.Channel
			for ch := 0; ch < s.Config.Channels; ch++ {
				hs = append(hs, fab.HChannel(ch))
			}
			for i := 0; i < fab.NumVChannels(); i++ {
				vs = append(vs, fab.VChannel(i*fab.ColumnsPerVChannel()))
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
		case *controller.MeshFabric:
			m := fab.Mesh()
			var chs []*bus.Channel
			for y := 0; y < s.Config.Channels; y++ {
				chs = append(chs, m.Link(meshNode(0, y), meshController(y)))
				chs = append(chs, m.Link(meshController(y), meshNode(0, y)))
			}
			row.HMeanWait, row.HMaxWait, row.BusiestUtil = scan(chs)
		}
		return row
	})
}

// meshNode and meshController adapt the mesh package's node constructors
// without importing it at every call site.
func meshNode(x, y int) mesh.Node    { return mesh.Node{X: x, Y: y} }
func meshController(y int) mesh.Node { return mesh.Controller(y) }
