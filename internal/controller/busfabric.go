package controller

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/flash"
	"repro/internal/sim"
)

// EccLatency is the controller-side ECC pipeline latency added to every
// page that crosses a flash channel controller (LDPC decode/encode).
const EccLatency = 500 * sim.Nanosecond

// OnDieEccLatency is the weaker on-die error detection used for direct
// flash-to-flash movement in pnSSD (the hybrid-ECC scheme of the paper's
// discussion section).
const OnDieEccLatency = 100 * sim.Nanosecond

// BusFabric is the classic one-bus-per-channel fabric. With a dedicated
// 8-bit interface it is the baseline SSD; with a packetized 16-bit
// interface it is pSSD (Fig 9(a)). Chips on one channel share that
// channel for every command and every byte of payload, and all traffic —
// host I/O and GC alike — funnels through the channel controller.
type BusFabric struct {
	eng      *sim.Engine
	name     string
	grid     *Grid
	soc      *Soc
	pageSize int
	chans    []*bus.Channel
	iface    []bus.Iface
}

// NewBusFabric builds a bus fabric with one channel per grid row.
// packetized selects the pSSD interface; widthBits and rateMTps describe
// each channel (8/1000 for baseSSD, 16/1000 for pSSD per Table II).
func NewBusFabric(eng *sim.Engine, name string, grid *Grid, soc *Soc, pageSize, widthBits, rateMTps int, packetized bool) *BusFabric {
	f := &BusFabric{
		eng:      eng,
		name:     name,
		grid:     grid,
		soc:      soc,
		pageSize: pageSize,
		chans:    make([]*bus.Channel, grid.Channels),
		iface:    make([]bus.Iface, grid.Channels),
	}
	for ch := 0; ch < grid.Channels; ch++ {
		f.chans[ch] = bus.NewChannel(eng, fmt.Sprintf("%s/h%d", name, ch), widthBits, rateMTps)
		if packetized {
			f.iface[ch] = bus.NewPacketized(f.chans[ch])
		} else {
			if widthBits != 8 {
				panic("controller: dedicated interface is 8 bits wide")
			}
			f.iface[ch] = bus.NewDedicated(rateMTps)
		}
	}
	return f
}

// Name implements Fabric.
func (f *BusFabric) Name() string { return f.name }

// Grid implements Fabric.
func (f *BusFabric) Grid() *Grid { return f.grid }

// Channel returns the h-channel for a grid row, for instrumentation.
func (f *BusFabric) Channel(ch int) *bus.Channel { return f.chans[ch] }

// Read implements Fabric: command on the channel, tR in the array, page
// readout on the channel, ECC, then the SoC hop into DRAM.
func (f *BusFabric) Read(id ChipID, ppas []flash.PPA, done func()) {
	ch := f.chans[id.Channel]
	ifc := f.iface[id.Channel]
	chip := f.grid.Chip(id)
	n := totalBytes(f.pageSize, len(ppas))
	ch.UseOp("read-cmd", ifc.ReadCmd(), func() {
		chip.Read(ppas, func() {
			ch.UseOp("read-xfer", ifc.ReadXfer(n), func() {
				f.eng.Schedule(EccLatency, func() {
					f.soc.Transfer(n, done)
				})
			})
		})
	})
}

// Write implements Fabric: the SoC hop out of DRAM, command+payload on the
// channel, then tPROG in the array.
func (f *BusFabric) Write(id ChipID, ops []flash.ProgramOp, done func()) {
	ch := f.chans[id.Channel]
	ifc := f.iface[id.Channel]
	chip := f.grid.Chip(id)
	n := totalBytes(f.pageSize, len(ops))
	f.soc.Transfer(n, func() {
		f.eng.Schedule(EccLatency, func() {
			ch.UseOp("program-xfer", ifc.ProgramXfer(n), func() {
				chip.Program(ops, done)
			})
		})
	})
}

// Erase implements Fabric.
func (f *BusFabric) Erase(id ChipID, blocks []flash.PPA, done func()) {
	ch := f.chans[id.Channel]
	ifc := f.iface[id.Channel]
	chip := f.grid.Chip(id)
	ch.UseOp("erase-cmd", ifc.EraseCmd(), func() {
		chip.Erase(blocks, done)
	})
}

// Copy implements Fabric: bus fabrics have no flash-to-flash connectivity,
// so a GC page copy reads the page back through the source channel into
// DRAM and writes it out through the destination channel (Fig 10(a)) —
// occupying both channels, the controllers' ECC, and the SoC twice.
func (f *BusFabric) Copy(src ChipID, from flash.PPA, dst ChipID, to flash.PPA, done func()) {
	srcCh := f.chans[src.Channel]
	srcIfc := f.iface[src.Channel]
	srcChip := f.grid.Chip(src)
	n := f.pageSize
	srcCh.UseOp("gc-read-cmd", srcIfc.ReadCmd(), func() {
		srcChip.Read([]flash.PPA{from}, func() {
			token := srcChip.PageRegister(from.Plane)
			srcCh.UseOp("gc-read-xfer", srcIfc.ReadXfer(n), func() {
				f.eng.Schedule(EccLatency, func() {
					f.soc.Transfer(n, func() {
						f.Write(dst, []flash.ProgramOp{{Addr: to, Token: token}}, done)
					})
				})
			})
		})
	})
}
