// Package controller implements the flash channel controllers and the
// architecture-specific interconnect fabrics of the paper: the
// conventional bus (baseSSD), the fat packetized bus (pSSD), the Omnibus
// 2D bus with its split control/data plane (pnSSD), and the
// Network-on-SSD mesh comparator.
//
// A Fabric hides topology behind four flash transactions — read, write,
// erase, and page copy — so the FTL and the host layer are identical
// across architectures, and every performance difference in the
// experiments emerges from the interconnect model.
package controller

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/flash"
	"repro/internal/sim"
)

// ChipID locates a chip in the channel×way grid: Channel is the row (the
// h-channel it shares) and Way is the column (the v-channel it shares).
type ChipID struct {
	Channel int
	Way     int
}

// String formats the id.
func (id ChipID) String() string { return fmt.Sprintf("ch%d/w%d", id.Channel, id.Way) }

// Fabric is the uniform transaction interface over an SSD interconnect.
// All completion callbacks fire as engine events after the full data path
// (flash array, channel, SoC) has been traversed.
type Fabric interface {
	// Name identifies the architecture for reports.
	Name() string
	// Grid returns the chip array.
	Grid() *Grid
	// Read performs a (multi-plane) page read from one chip and lands the
	// data in controller DRAM.
	Read(id ChipID, ppas []flash.PPA, done func())
	// Write programs (multi-plane) pages on one chip from DRAM.
	Write(id ChipID, ops []flash.ProgramOp, done func())
	// Erase erases one block per addressed plane on one chip.
	Erase(id ChipID, blocks []flash.PPA, done func())
	// Copy moves one valid page from src to dst for garbage collection.
	// The route is architecture-specific: through the controller and DRAM
	// on bus fabrics, directly flash-to-flash where the topology allows.
	Copy(src ChipID, from flash.PPA, dst ChipID, to flash.PPA, done func())
}

// Grid is the channel×way array of flash chips shared by every fabric.
type Grid struct {
	Channels int // rows
	Ways     int // columns
	chips    [][]*flash.Chip
}

// NewGrid builds channels×ways erased chips.
func NewGrid(eng *sim.Engine, channels, ways int, geo flash.Geometry, timing flash.Timing) *Grid {
	if channels <= 0 || ways <= 0 {
		panic(fmt.Sprintf("controller: invalid grid %dx%d", channels, ways))
	}
	g := &Grid{Channels: channels, Ways: ways, chips: make([][]*flash.Chip, channels)}
	for ch := 0; ch < channels; ch++ {
		g.chips[ch] = make([]*flash.Chip, ways)
		for w := 0; w < ways; w++ {
			g.chips[ch][w] = flash.NewChip(eng, fmt.Sprintf("ch%d/w%d", ch, w), geo, timing)
		}
	}
	return g
}

// Chip returns the chip at id.
func (g *Grid) Chip(id ChipID) *flash.Chip {
	if id.Channel < 0 || id.Channel >= g.Channels || id.Way < 0 || id.Way >= g.Ways {
		panic(fmt.Sprintf("controller: chip %v outside %dx%d grid", id, g.Channels, g.Ways))
	}
	return g.chips[id.Channel][id.Way]
}

// NumChips returns the total chip count.
func (g *Grid) NumChips() int { return g.Channels * g.Ways }

// ForEach visits every chip in row-major order.
func (g *Grid) ForEach(fn func(id ChipID, c *flash.Chip)) {
	for ch := 0; ch < g.Channels; ch++ {
		for w := 0; w < g.Ways; w++ {
			fn(ChipID{ch, w}, g.chips[ch][w])
		}
	}
}

// Soc models the shared controller-side resources every page crossing
// them must traverse: the system bus and DRAM, each a FIFO bandwidth
// resource, plus the on-chip control network the Omnibus control plane
// uses for request/grant messages between channel controllers.
type Soc struct {
	eng          *sim.Engine
	sysBus       *sim.Resource
	dram         *sim.Resource
	sysBusPsByte sim.Time
	dramPsByte   sim.Time
	ctrlMsgDelay sim.Time
	freeXfers    []*socXfer // recycled Transfer records
}

// DefaultCtrlMsgLatency is the one-way latency of a control-plane message
// between two channel controllers over the SoC interconnect.
const DefaultCtrlMsgLatency = 100 * sim.Nanosecond

// NewSoc builds the SoC resources with the given bandwidths in MB/s.
// Table II provisions system bus and DRAM at the total flash bus
// bandwidth (8 GB/s for the 8×1 GB/s baseline).
func NewSoc(eng *sim.Engine, sysBusMBps, dramMBps int) *Soc {
	if sysBusMBps <= 0 || dramMBps <= 0 {
		panic("controller: non-positive SoC bandwidth")
	}
	return &Soc{
		eng:          eng,
		sysBus:       sim.NewResource(eng, "sysbus"),
		dram:         sim.NewResource(eng, "dram"),
		sysBusPsByte: sim.Time(1_000_000 / sysBusMBps), // ps per byte at MB/s == bytes/us
		dramPsByte:   sim.Time(1_000_000 / dramMBps),
		ctrlMsgDelay: DefaultCtrlMsgLatency,
	}
}

// Transfer moves n bytes across the system bus and into/out of DRAM as a
// two-stage pipeline, then runs done.
func (s *Soc) Transfer(n int, done func()) {
	s.newXfer(n, done).sysBusStep()
}

// eccTransfer is the tail of every page read into DRAM: the controller's
// ECC pipeline latency, then Transfer.
func (s *Soc) eccTransfer(n int, done func()) {
	s.eng.Schedule(EccLatency, s.newXfer(n, done).sysBus)
}

// socXfer is one SoC transfer between issue and its DRAM stage. Records
// are recycled through the Soc's free list; sysBus and dram are method
// values bound once when the record is created, so a transfer allocates
// nothing in steady state.
type socXfer struct {
	s      *Soc
	n      int
	done   func()
	sysBus func() // bound x.sysBusStep
	dram   func() // bound x.dramStep
}

// newXfer pops a transfer record off the free list, building one if
// empty.
func (s *Soc) newXfer(n int, done func()) *socXfer {
	if n < 0 {
		panic("controller: negative SoC transfer")
	}
	var x *socXfer
	if k := len(s.freeXfers); k > 0 {
		x = s.freeXfers[k-1]
		s.freeXfers = s.freeXfers[:k-1]
	} else {
		x = &socXfer{s: s}
		x.sysBus = x.sysBusStep
		x.dram = x.dramStep
	}
	x.n, x.done = n, done
	return x
}

func (x *socXfer) sysBusStep() {
	x.s.sysBus.UseLabeled("xfer", sim.Time(x.n)*x.s.sysBusPsByte, x.dram)
}

// dramStep is the record's last event: it goes back on the free list and
// the DRAM hold carries done.
func (x *socXfer) dramStep() {
	s, n, done := x.s, x.n, x.done
	x.done = nil
	s.freeXfers = append(s.freeXfers, x)
	s.dram.UseLabeled("xfer", sim.Time(n)*s.dramPsByte, done)
}

// AddObserver attaches a hold/queue observer to the system bus and DRAM
// resources, alongside any already installed.
func (s *Soc) AddObserver(o sim.ResourceObserver) {
	s.sysBus.AddObserver(o)
	s.dram.AddObserver(o)
}

// Idle reports whether both SoC resources are idle with empty queues — a
// drained-device invariant.
func (s *Soc) Idle() bool {
	return !s.sysBus.Busy() && s.sysBus.QueueLen() == 0 &&
		!s.dram.Busy() && s.dram.QueueLen() == 0
}

// CtrlMsg delivers a control-plane message between two channel
// controllers after the SoC interconnect latency.
func (s *Soc) CtrlMsg(fn func()) { s.eng.Schedule(s.ctrlMsgDelay, fn) }

// SetCtrlMsgLatency overrides the control-plane message latency, for the
// control-plane sensitivity ablation.
func (s *Soc) SetCtrlMsgLatency(d sim.Time) {
	if d < 0 {
		panic("controller: negative control message latency")
	}
	s.ctrlMsgDelay = d
}

// SysBusBusy returns cumulative system-bus occupancy, for reports.
func (s *Soc) SysBusBusy() sim.Time { return s.sysBus.TotalBusy() }

// DramBusy returns cumulative DRAM occupancy.
func (s *Soc) DramBusy() sim.Time { return s.dram.TotalBusy() }

// readOp is one Fabric.Read in flight on a bus, Omnibus or mesh fabric:
// the command reaches the chip, the array senses, the fabric's own return
// path carries the pages to the controller, and Soc.eccTransfer lands
// them in DRAM. Records are recycled through the fabric's readOps free
// list, and every step is a method value bound once when the record is
// created, so a steady stream of reads allocates nothing.
type readOp struct {
	ops  *readOps
	id   ChipID
	chip *flash.Chip
	ppas []flash.PPA // the caller's slice, read when the command lands
	n    int         // payload bytes
	done func()

	// Omnibus returns: joins counts the split halves still in flight,
	// and vch/vLabel/vDur/vNext is the v-channel hold issued once the
	// control-plane grant arrives.
	joins  int
	vch    *bus.Channel
	vLabel string
	vDur   sim.Time
	vNext  func()

	sense, ret, xfer, join, vReq, vGrant func() // bound steps
}

// readOps is one fabric's free list of read records plus its data return
// path, which runs once the pages sit in the chip's page registers and
// must end in the record's xfer step.
type readOps struct {
	grid     *Grid
	soc      *Soc
	pageSize int
	ret      func(r *readOp)
	free     []*readOp
}

// get pops a read record off the free list, building one if empty.
func (p *readOps) get(id ChipID, ppas []flash.PPA, done func()) *readOp {
	var r *readOp
	if k := len(p.free); k > 0 {
		r = p.free[k-1]
		p.free = p.free[:k-1]
	} else {
		r = &readOp{ops: p}
		r.sense, r.ret, r.xfer = r.senseStep, r.retStep, r.xferStep
		r.join, r.vReq, r.vGrant = r.joinStep, r.vReqStep, r.vGrantStep
	}
	r.id, r.chip, r.ppas, r.done = id, p.grid.Chip(id), ppas, done
	r.n = totalBytes(p.pageSize, len(ppas))
	return r
}

func (r *readOp) senseStep() { r.chip.Read(r.ppas, r.ret) }

func (r *readOp) retStep() { r.ops.ret(r) }

// xferStep is the record's last event: the payload has reached the
// controller, so the record goes back on the free list and the ECC and
// SoC hop carries done.
func (r *readOp) xferStep() {
	p, n, done := r.ops, r.n, r.done
	r.ppas, r.done, r.vNext = nil, nil, nil
	p.free = append(p.free, r)
	p.soc.eccTransfer(n, done)
}

// joinStep completes one half of a split return.
func (r *readOp) joinStep() {
	r.joins--
	if r.joins == 0 {
		r.xferStep()
	}
}

// afterVGrant issues a v-channel hold of d once the request/grant
// exchange over the control plane lets controller[way] drive vch, then
// runs next.
func (r *readOp) afterVGrant(vch *bus.Channel, label string, d sim.Time, next func()) {
	r.vch, r.vLabel, r.vDur, r.vNext = vch, label, d, next
	r.ops.soc.CtrlMsg(r.vReq)
}

func (r *readOp) vReqStep() { r.ops.soc.CtrlMsg(r.vGrant) }

func (r *readOp) vGrantStep() { r.vch.UseOp(r.vLabel, r.vDur, r.vNext) }

// totalBytes sums the page sizes of a multi-plane op set.
func totalBytes(pageSize, pages int) int { return pageSize * pages }
