package exp

import (
	"repro/internal/bus"
	"repro/internal/onfi"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Fig1Point is one product data point of the motivation figure.
type Fig1Point struct {
	Year  int
	MBps  float64
	Label string
}

// Fig1 returns the flash-chip and flash-bus bandwidth trends of Fig 1.
// The chip series follows the ISSCC products the paper cites (per-chip
// write bandwidth); the bus series follows the ONFi interface generations.
// These are literature constants, not simulation outputs.
func Fig1() (chip, busTrend []Fig1Point) {
	// Per-chip I/O bandwidth (interface rate a single die can drive),
	// which Fig 1(a) shows growing roughly 10x every 5 years.
	chip = []Fig1Point{
		{2006, 2.5, "async SLC, 40 MT/s shared"},
		{2008, 16, "early sync MLC"},
		{2010, 66, "toggle-mode MLC"},
		{2012, 160, "planar TLC"},
		{2014, 333, "V-NAND v2"},
		{2016, 500, "V-NAND v4"},
		{2018, 1200, "1.2 Gb/s IO (Kim/Lee)"},
		{2019, 1200, "512Gb TLC v6 (Kang)"},
		{2020, 1200, "1Tb 4b/cell (Kim)"},
		{2021, 2000, "2.0 Gb/s interface (Cho)"},
	}
	busTrend = []Fig1Point{
		{2006, 40, "async SDR"},
		{2008, 133, "ONFi 2.0"},
		{2010, 200, "ONFi 2.3"},
		{2012, 400, "ONFi 3.x NV-DDR2"},
		{2014, 533, "ONFi 3.2"},
		{2017, 800, "ONFi 4.0 NV-DDR3"},
		{2020, 1200, "ONFi 4.2 NV-DDR4"},
		{2021, 1600, "ONFi 5.0"},
	}
	return chip, busTrend
}

// Fig6Phase is one phase of the read-transaction timing diagram.
type Fig6Phase struct {
	Phase string
	Dur   sim.Time
}

// Fig6Result compares the conventional and packetized read transactions.
type Fig6Result struct {
	Conventional []Fig6Phase
	Packetized   []Fig6Phase
	ConvTotal    sim.Time
	PktTotal     sim.Time
}

// Fig6 reproduces the Fig 6 timing comparison for one 16 KB page read at
// Table II rates: command/address phase, array read (tR), and data
// readout on the channel, for the 8-bit dedicated interface versus the
// 16-bit packetized interface.
func Fig6(cfg ssd.Config) Fig6Result {
	eng := sim.NewEngine()
	dedicated := bus.NewDedicated(cfg.BusMTps)
	pch := bus.NewChannel(eng, "p", 16, cfg.BusMTps)
	pkt := bus.NewPacketized(pch)
	n := cfg.Geometry.PageSize
	tR := cfg.Timing.Read

	conv := []Fig6Phase{
		{"CMD+ADDR (CLE/ALE cycles)", dedicated.ReadCmd()},
		{"tR (array read)", tR},
		{"DQ readout (RE-clocked)", dedicated.ReadXfer(n)},
	}
	pktPhases := []Fig6Phase{
		{"control packet (read)", pkt.ReadCmd()},
		{"tR (array read)", tR},
		{"xfer cmd + data packet", pkt.ReadXfer(n)},
	}
	res := Fig6Result{Conventional: conv, Packetized: pktPhases}
	for _, p := range conv {
		res.ConvTotal += p.Dur
	}
	for _, p := range pktPhases {
		res.PktTotal += p.Dur
	}
	return res
}

// Fig8Row quantifies packetization overhead for one payload size.
type Fig8Row struct {
	PayloadBytes int
	WireFlits    int
	Overhead     float64
}

// Fig8Result is the packet-format overhead analysis.
type Fig8Result struct {
	ControlHeaderOverhead float64 // fraction of header bits reserved
	DataHeaderOverhead    float64
	ControlPacketFlits    int // full read control packet
	Rows                  []Fig8Row
}

// Fig8 reproduces the packet-overhead argument of Fig 8: header bit
// overhead per packet type and total wire overhead versus payload size —
// negligible at the 16-64 KB page sizes flash actually moves.
func Fig8() Fig8Result {
	res := Fig8Result{
		ControlHeaderOverhead: packet.HeaderOverhead(packet.TypeControl),
		DataHeaderOverhead:    packet.HeaderOverhead(packet.TypeData),
		ControlPacketFlits:    packet.ControlFlitsFor(),
	}
	for _, n := range []int{512, 4096, 16384, 65535} {
		res.Rows = append(res.Rows, Fig8Row{
			PayloadBytes: n,
			WireFlits:    packet.DataFlitsFor(n) + packet.ControlFlitsFor(),
			Overhead:     packet.TransferOverhead(n),
		})
	}
	return res
}

// TableIRow describes one ONFi signal.
type TableIRow struct {
	Symbol      string
	Type        string
	Pins        int
	Description string
}

// TableI returns the flash interface signal inventory.
func TableI() []TableIRow {
	order := []onfi.Signal{onfi.CLE, onfi.ALE, onfi.RE, onfi.REc, onfi.WE, onfi.WP, onfi.CE, onfi.RBn, onfi.DQ, onfi.DQS, onfi.DQSc}
	rows := make([]TableIRow, 0, len(order))
	for _, s := range order {
		info := onfi.Signals[s]
		ty := "Data I/O"
		if info.Control {
			ty = "Control"
		}
		rows = append(rows, TableIRow{Symbol: info.Symbol, Type: ty, Pins: info.Pins, Description: info.Description})
	}
	return rows
}

// TableIII returns the architecture matrix.
func TableIII() [][2]string {
	rows := make([][2]string, 0, len(ssd.Archs))
	for _, a := range ssd.Archs {
		rows = append(rows, [2]string{a.String(), a.Describe()})
	}
	return rows
}
