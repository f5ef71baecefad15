// Path diversity: the Omnibus topology gives every chip two ways home —
// its row's h-channel and its column's v-channel. This example hammers a
// single hot channel with reads (the Fig 3 imbalance, distilled) and
// shows pnSSD routing around the hotspot while baseSSD and pSSD queue on
// one bus. It also prints the fabric's own path counters: all four
// architectures are the one channel fabric, and the bus ones, having no
// v-channels, return everything over h.
package main

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/host"
	"repro/internal/ssd"
	"repro/internal/stats"
)

// hotChannelReads generates single-page reads spread across all ways of
// channel 0 only: the pathological row-hotspot.
func hotChannelReads(device *ssd.SSD, total int) {
	foot := device.Config.LogicalPages()
	planes := int64(device.Config.Geometry.Planes)
	channels := int64(device.Config.Channels)
	// With PCWD warm-up striping, LPN -> channel is (lpn/planes) % channels.
	// Pick LPNs on channel 0 at varying ways.
	var lpns []int64
	for lpn := int64(0); lpn < foot && len(lpns) < 512; lpn += planes {
		if (lpn / planes % channels) == 0 {
			lpns = append(lpns, lpn)
		}
	}
	i := 0
	gen := func(int) host.Request {
		lpn := lpns[i%len(lpns)]
		i += 7 // stride so consecutive requests hit different ways
		return host.Request{Kind: stats.Read, LPN: lpn, Pages: 1}
	}
	device.Host.RunClosedLoop(gen, 16, total)
}

func main() {
	for _, arch := range []ssd.Arch{ssd.ArchBase, ssd.ArchPSSD, ssd.ArchPnSSD, ssd.ArchPnSSDSplit} {
		device := ssd.New(arch, ssd.ScaledConfig())
		device.Host.Warmup(device.Config.LogicalPages())
		hotChannelReads(device, 400)
		device.Run()
		m := device.Metrics()
		h, v, split, _, _ := device.Fabric.(*controller.OmnibusFabric).PathCounts()
		fmt.Printf("%-22s mean=%-10v p99=%-10v %.1f KIOPS   (returns: %d via h, %d via v, %d split)\n",
			arch, m.MeanLatency(), m.Combined().P99(), m.KIOPS(), h, v, split)
	}
	fmt.Println("\nEvery read targets channel 0. The bus architectures serialize on that")
	fmt.Println("one channel; Omnibus spreads the returns across the ways' v-channels.")
}
