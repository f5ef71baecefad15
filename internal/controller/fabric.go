// Package controller implements the flash channel controllers and the
// architecture-specific interconnect fabrics of the paper: the channel
// fabric (OmnibusFabric) in its three steps — the conventional bus
// (baseSSD), the fat packetized bus (pSSD), and the Omnibus 2D bus with
// its split control/data plane (pnSSD) — and the Network-on-SSD mesh
// comparator.
//
// A Fabric hides topology behind four flash transactions — read, write,
// erase, and page copy — so the FTL and the host layer are identical
// across architectures, and every performance difference in the
// experiments emerges from the interconnect model.
package controller

import (
	"fmt"
	"strconv"

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

// EccLatency is the controller-side ECC pipeline latency added to every
// page that crosses a flash channel controller (LDPC decode/encode).
const EccLatency = 500 * sim.Nanosecond

// OnDieEccLatency is the weaker on-die error detection used for direct
// flash-to-flash movement in pnSSD (the hybrid-ECC scheme of the paper's
// discussion section).
const OnDieEccLatency = 100 * sim.Nanosecond

// Fabric is the uniform transaction interface over an SSD interconnect.
// All completion callbacks fire as engine events after the full data path
// (flash array, channel, SoC) has been traversed.
//
// A fabric may read the caller's ppas, ops and blocks slices until the
// op's done fires, so the caller must leave them untouched until then; no
// fabric copies them.
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
	// without v-channels, directly flash-to-flash where the topology
	// allows.
	Copy(src ChipID, from flash.PPA, dst ChipID, to flash.PPA, done func())
	// Reset returns an idle fabric to its state after construction: its
	// own buses or links idle with zero totals and no observer, counters
	// zero, hooks detached. Settings (a route policy) and recycled
	// records are kept. The grid and SoC it was built over are reset by
	// their owner.
	Reset()
}

// Grid is the channel×way array of flash chips shared by every fabric.
// Its chips are one flash.Array in row-major order.
type Grid struct {
	Channels int // rows
	Ways     int // columns
	arr      *flash.Array
}

// NewGrid builds channels×ways erased chips named ch<channel>/w<way>.
func NewGrid(eng *sim.Engine, channels, ways int, geo flash.Geometry, timing flash.Timing) *Grid {
	if channels <= 0 || ways <= 0 {
		panic(fmt.Sprintf("controller: invalid grid %dx%d", channels, ways))
	}
	name := func(b []byte, i int) []byte {
		b = strconv.AppendInt(append(b, "ch"...), int64(i/ways), 10)
		return strconv.AppendInt(append(b, "/w"...), int64(i%ways), 10)
	}
	return &Grid{Channels: channels, Ways: ways, arr: flash.NewArray(eng, channels*ways, name, geo, timing)}
}

// Chip returns the chip at id.
func (g *Grid) Chip(id ChipID) *flash.Chip {
	if id.Channel < 0 || id.Channel >= g.Channels || id.Way < 0 || id.Way >= g.Ways {
		panic(fmt.Sprintf("controller: chip %v outside %dx%d grid", id, g.Channels, g.Ways))
	}
	return &g.arr.Chips[id.Channel*g.Ways+id.Way]
}

// NumChips returns the total chip count.
func (g *Grid) NumChips() int { return g.Channels * g.Ways }

// ForEach visits every chip in row-major order.
func (g *Grid) ForEach(fn func(id ChipID, c *flash.Chip)) {
	for i := range g.arr.Chips {
		fn(ChipID{i / g.Ways, i % g.Ways}, &g.arr.Chips[i])
	}
}

// Reset returns every chip to its state at NewGrid (flash.Array.Reset).
func (g *Grid) Reset() { g.arr.Reset() }

// SaveArray returns a copy of every chip's array state.
func (g *Grid) SaveArray() *flash.ArrayState { return g.arr.Save() }

// RestoreArray overwrites every chip's array state with a copy of s,
// saved from a grid of the same shape and geometry.
func (g *Grid) RestoreArray(s *flash.ArrayState) { g.arr.Restore(s) }

// Soc models the shared controller-side resources every page crossing
// them must traverse: the system bus and DRAM, each a FIFO bandwidth
// resource, plus the on-chip control network the Omnibus control plane
// uses for request/grant messages between channel controllers.
//
// The system bus and DRAM are a tandem of FIFO stages entered only
// through transfer, and DRAM is fed only by the system bus, in the same
// order, so a transfer's whole path is known when it is requested. The
// Soc keeps each stage's virtual clock, the instant it finishes the work
// requested so far, and a transfer costs one event: its completion,
// scheduled where a DRAM release granted at the same instant would be
// (transfer). With an observer attached, sysBus and dram replay every
// transfer's two holds as passive holds (sim.Resource.SetPassive),
// requested where the stages take them, so the observers see each hold
// and queue change as two ordinary resources would report them, and no
// event is added.
type Soc struct {
	eng          *sim.Engine
	sysBusPsByte sim.Time
	dramPsByte   sim.Time
	ctrlMsgDelay sim.Time
	// sysFree and dramFree are the instants the system bus and DRAM
	// finish the transfers requested so far; sysTotal and dramTotal sum
	// those transfers' holds, and transfers counts them.
	sysFree, dramFree   sim.Time
	sysTotal, dramTotal sim.Time
	transfers           int64

	// landing queues the transfers without a tail whose completion has
	// not fired, in DRAM order, and land (bound s.landStep) is each one's
	// completion event. lastTail reports that the last transfer requested
	// had a tail, so it is not in landing.
	landing  sim.Queue[socLanding]
	land     func()
	lastTail bool

	// The observed replay: observed is set by AddObserver, dramHolds
	// queues the DRAM hold of each transfer on the passive system bus,
	// oldest first, and toDram (bound s.dramStep) requests it there.
	sysBus, dram *sim.Resource
	observed     bool
	dramHolds    sim.Queue[sim.Time]
	toDram       func()

	xfers sim.Pool[socXfer] // recycled eccTransfer records
}

// socLanding is a transfer without a tail on its way into DRAM: its
// DRAM release and done. behind marks one that DRAM grants at the
// release of the transfer before it, whose completion schedules this
// one's.
type socLanding struct {
	at     sim.Time
	done   func()
	behind bool
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
	s := &Soc{
		eng:          eng,
		sysBus:       sim.NewResource(eng, "sysbus"),
		dram:         sim.NewResource(eng, "dram"),
		sysBusPsByte: sim.Time(1_000_000 / sysBusMBps), // ps per byte at MB/s == bytes/us
		dramPsByte:   sim.Time(1_000_000 / dramMBps),
		ctrlMsgDelay: DefaultCtrlMsgLatency,
	}
	s.sysBus.SetPassive()
	s.dram.SetPassive()
	s.land = s.landStep
	s.toDram = s.dramStep
	return s
}

// Transfer moves n bytes across the system bus and into/out of DRAM as a
// two-stage pipeline, then runs done.
func (s *Soc) Transfer(n int, done func()) { s.transfer(n, 0, done) }

// transfer is Transfer with done run tail after the payload leaves DRAM,
// in the same event: a write's controller ECC rides its SoC transfer.
//
// The system bus grants the transfer at max(now, sysFree) and holds it
// for n bytes; DRAM grants it at g2 = max(that release, dramFree). The
// completion fires at the DRAM release, or tail after it, and is
// ordered as the release event of a resource granted at g2 would be:
//   - If DRAM is busy at the bus release (a tie counts as busy) with a
//     transfer that is still in landing, g2 is that transfer's release.
//     Its completion schedules this one's before it runs its done, as a
//     release hands a resource on before its holder's done runs.
//   - Otherwise the completion is scheduled now, as of g2
//     (sim.Engine.AtFrom): after what is scheduled at g2. A tail is
//     scheduled as of the release it follows.
func (s *Soc) transfer(n int, tail sim.Time, done func()) {
	if n < 0 {
		panic("controller: negative SoC transfer")
	}
	sys, dram := sim.Time(n)*s.sysBusPsByte, sim.Time(n)*s.dramPsByte
	s.sysFree = max(s.eng.Now(), s.sysFree) + sys
	queued := s.sysFree <= s.dramFree
	g2 := max(s.sysFree, s.dramFree)
	s.dramFree = g2 + dram
	s.sysTotal += sys
	s.dramTotal += dram
	s.transfers++
	if s.observed {
		s.dramHolds.Push(dram)
		s.sysBus.UseLabeled("xfer", sys, s.toDram)
	}
	if tail > 0 {
		s.lastTail = true
		if done != nil {
			s.eng.AtFrom(s.dramFree+tail, s.dramFree, done)
		}
		return
	}
	behind := queued && !s.lastTail && s.landing.Len() > 0
	s.lastTail = false
	s.landing.Push(socLanding{at: s.dramFree, done: done, behind: behind})
	if !behind {
		s.eng.AtFrom(s.dramFree, g2, s.land)
	}
}

// landStep is a completion: the oldest transfer in landing has left
// DRAM. The next one's completion is scheduled first if it waited on
// this release.
func (s *Soc) landStep() {
	x := s.landing.Pop()
	if s.landing.Len() > 0 && s.landing.Peek(0).behind {
		s.eng.At(s.landing.Peek(0).at, s.land)
	}
	if x.done != nil {
		x.done()
	}
}

// dramStep hands the transfer the passive system bus just released to
// the passive DRAM.
func (s *Soc) dramStep() { s.dram.UseLabeled("xfer", s.dramHolds.Pop(), nil) }

// eccTransfer is the tail of every page read into DRAM: the controller's
// ECC pipeline latency, then Transfer. The delay stays an event of its
// own: the read reaches the system bus only then, and a transfer
// requested meanwhile must be granted first.
func (s *Soc) eccTransfer(n int, done func()) {
	x, fresh := s.xfers.Get()
	if fresh {
		x.s = s
		x.fire = x.enter
	}
	x.n, x.done = n, done
	s.eng.Schedule(EccLatency, x.fire)
}

// socXfer is a read's payload in the controller ECC. Records are
// recycled through the Soc's pool, so a read allocates nothing in
// steady state.
type socXfer struct {
	s    *Soc
	n    int
	done func()
	fire func() // bound x.enter
}

// enter is the record's one event: the payload leaves the ECC, the
// record goes back to the pool and the transfer carries done.
func (x *socXfer) enter() {
	s, n, done := x.s, x.n, x.done
	x.done = nil
	s.xfers.Put(x)
	s.Transfer(n, done)
}

// Reset returns an idle SoC to its state at NewSoc: both stages free at
// time zero with zero totals, and no observer. The control-plane latency
// and recycled records are kept.
func (s *Soc) Reset() {
	s.sysFree, s.dramFree, s.sysTotal, s.dramTotal, s.transfers = 0, 0, 0, 0, 0
	s.lastTail, s.observed = false, false
	s.sysBus.Reset()
	s.dram.Reset()
}

// AddObserver attaches a hold/queue observer to the system bus and DRAM,
// alongside any already installed. The SoC must be idle: the replay
// starts with its first transfer.
func (s *Soc) AddObserver(o sim.ResourceObserver) {
	if o == nil {
		return
	}
	if !s.Idle() {
		panic("controller: observer attached to a busy SoC")
	}
	s.sysBus.AddObserver(o)
	s.dram.AddObserver(o)
	s.observed = true
}

// Idle reports whether the system bus and DRAM have finished every
// transfer requested — a drained-device invariant.
func (s *Soc) Idle() bool { return s.eng.Now() >= s.dramFree }

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

// SysBusBusy returns the cumulative system-bus occupancy of the
// transfers requested so far, for reports.
func (s *Soc) SysBusBusy() sim.Time { return s.sysTotal }

// DramBusy returns the cumulative DRAM occupancy of the transfers
// requested so far.
func (s *Soc) DramBusy() sim.Time { return s.dramTotal }

// Transfers returns the number of transfers requested so far.
func (s *Soc) Transfers() int64 { return s.transfers }

// fabricOp is one Fabric.Read, Write or Erase in flight on the channel or
// mesh fabric. A read's command reaches the chip, the array senses, the
// fabric's own return path carries the pages to the controller, and
// Soc.eccTransfer lands them in DRAM. A write crosses the SoC and the
// controller ECC in one event (Soc.transfer with its ECC tail), the
// fabric's own delivery path carries the payload to the chip, and the
// chip programs it. An erase is one command, then the chip erases.
// Records are recycled through the fabric's fabricOps pool, so a steady
// stream of operations allocates nothing.
//
// A record's steps run in two lanes. The main lane carries the op from
// issue to its last event; the v lane carries a v-channel hold through
// its control-plane request and grant, which on a split transfer runs
// while the main lane holds the h-channel half.
type fabricOp struct {
	pool  *fabricOps
	id    ChipID
	chip  *flash.Chip
	ppas  []flash.PPA       // read or erase: the caller's slice
	progs []flash.ProgramOp // write: the caller's slice
	n     int               // payload bytes
	done  func()

	// Omnibus transfers: joins counts the split halves still in flight
	// and joined is the step that runs when the last lands;
	// vch/vLabel/vDur/vNext is the v-channel hold issued once the
	// control-plane grant arrives, and the step it ends in.
	joins  int
	joined opStep
	vch    *bus.Channel
	vLabel string
	vDur   sim.Time
	vNext  opStep

	lane, vLane sim.Lane[opStep] // bound r.run and r.runV
}

// opStep names a fabric op's steps.
type opStep uint8

const (
	fopSense   opStep = iota // read command at the chip: sense
	fopRet                   // pages in the registers: return them
	fopXfer                  // read payload at the controller
	fopDeliver               // write payload past the ECC: deliver it
	fopProgram               // write payload at the chip
	fopErase                 // erase command at the chip
	fopJoin                  // one split half landed
	fopVReq                  // v-channel request at its owner
	fopVGrant                // v-channel grant back: hold it
)

// fabricOps is one fabric's pool of op records plus its two
// fabric-specific paths: ret carries a read's pages from the chip's page
// registers to the controller and must end in the record's fopXfer step;
// deliver carries a write's payload from the controller to the chip and
// must end in its fopProgram step.
type fabricOps struct {
	grid     *Grid
	soc      *Soc
	pageSize int
	ret      func(r *fabricOp)
	deliver  func(r *fabricOp)
	free     sim.Pool[fabricOp]
}

// get takes an op record from the pool.
func (p *fabricOps) get(id ChipID, done func()) *fabricOp {
	r, fresh := p.free.Get()
	if fresh {
		r.pool = p
		r.lane.Bind(r.run)
		r.vLane.Bind(r.runV)
	}
	r.id, r.chip, r.done = id, p.grid.Chip(id), done
	return r
}

// read loads a record for a Fabric.Read.
func (p *fabricOps) read(id ChipID, ppas []flash.PPA, done func()) *fabricOp {
	r := p.get(id, done)
	r.ppas, r.n = ppas, totalBytes(p.pageSize, len(ppas))
	return r
}

// write loads a record for a Fabric.Write.
func (p *fabricOps) write(id ChipID, progs []flash.ProgramOp, done func()) *fabricOp {
	r := p.get(id, done)
	r.progs, r.n = progs, totalBytes(p.pageSize, len(progs))
	return r
}

// put returns a record whose last event has fired to the pool.
func (p *fabricOps) put(r *fabricOp) {
	r.ppas, r.progs, r.done = nil, nil, nil
	p.free.Put(r)
}

func (r *fabricOp) run()  { r.do(r.lane.Step) }
func (r *fabricOp) runV() { r.do(r.vLane.Step) }

// do runs step s.
func (r *fabricOp) do(s opStep) {
	switch s {
	case fopSense:
		r.chip.Read(r.ppas, r.lane.Then(fopRet))
	case fopRet:
		r.pool.ret(r)
	case fopXfer:
		r.xferStep()
	case fopDeliver:
		r.pool.deliver(r)
	case fopProgram:
		r.programStep()
	case fopErase:
		r.eraseStep()
	case fopJoin:
		r.joinStep()
	case fopVReq:
		r.pool.soc.CtrlMsg(r.vLane.Then(fopVGrant))
	case fopVGrant:
		r.vch.UseOp(r.vLabel, r.vDur, r.vLane.Then(r.vNext))
	}
}

// xferStep is a read's last event: the payload has reached the
// controller, so the record goes back to the pool and the ECC and SoC
// hop carries done.
func (r *fabricOp) xferStep() {
	p, n, done := r.pool, r.n, r.done
	p.put(r)
	p.soc.eccTransfer(n, done)
}

// programStep is a write's last event: the payload sits at the chip, so
// the record goes back to the pool and the program carries done.
func (r *fabricOp) programStep() {
	chip, progs, done := r.chip, r.progs, r.done
	r.pool.put(r)
	chip.Program(progs, done)
}

// eraseStep is an erase's last event: the command reached the chip.
func (r *fabricOp) eraseStep() {
	chip, blocks, done := r.chip, r.ppas, r.done
	r.pool.put(r)
	chip.Erase(blocks, done)
}

// splitJoin arms a split transfer: two halves in flight, and step next
// runs when both have landed.
func (r *fabricOp) splitJoin(next opStep) {
	r.joins, r.joined = 2, next
}

// joinStep completes one half of a split transfer.
func (r *fabricOp) joinStep() {
	r.joins--
	if r.joins == 0 {
		r.do(r.joined)
	}
}

// afterVGrant issues a v-channel hold of d once the request/grant
// exchange over the control plane lets controller[way] drive vch, then
// runs step next on the v lane.
func (r *fabricOp) afterVGrant(vch *bus.Channel, label string, d sim.Time, next opStep) {
	r.vch, r.vLabel, r.vDur, r.vNext = vch, label, d, next
	r.pool.soc.CtrlMsg(r.vLane.Then(fopVReq))
}

// totalBytes sums the page sizes of a multi-plane op set.
func totalBytes(pageSize, pages int) int { return pageSize * pages }
