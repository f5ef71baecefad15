// Package flash models NAND flash memory chips: the die/plane/block/page
// geometry, array operation timing (tR, tPROG, tBERS), multi-plane
// commands, per-plane page registers, and the pnSSD addition of V-page
// registers (Fig 7 of the paper). The packet-decoding on-die controller
// is modelled as flit timing on the channel (bus.Packetized), so the
// fabrics drive a chip through its methods directly.
//
// Page contents are modelled as 64-bit tokens rather than full 16 KB
// buffers, which lets every copy path (host write, controller-mediated GC
// copy, direct flash-to-flash v-channel copy) be verified end to end while
// keeping simulations of multi-million-page devices cheap.
package flash

import (
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Geometry describes one chip. The paper's Table II uses 1 die, 4 planes,
// 1024 blocks per plane, 512 pages per block, 16 KB pages.
type Geometry struct {
	Planes         int
	BlocksPerPlane int
	PagesPerBlock  int
	PageSize       int // bytes
}

// Validate panics on a malformed geometry.
func (g Geometry) Validate() {
	if g.Planes <= 0 || g.BlocksPerPlane <= 0 || g.PagesPerBlock <= 0 || g.PageSize <= 0 {
		panic(fmt.Sprintf("flash: invalid geometry %+v", g))
	}
}

// PagesPerChip returns the total page count.
func (g Geometry) PagesPerChip() int {
	return g.Planes * g.BlocksPerPlane * g.PagesPerBlock
}

// Timing holds the array operation latencies. Table II uses the ULL
// parameters: read 3 us, program 50 us, erase 1 ms.
type Timing struct {
	Read    sim.Time
	Program sim.Time
	Erase   sim.Time
}

// ULLTiming returns the ultra-low-latency flash parameters from Table II.
func ULLTiming() Timing {
	return Timing{
		Read:    3 * sim.Microsecond,
		Program: 50 * sim.Microsecond,
		Erase:   sim.Millisecond,
	}
}

// PPA is a physical page address within one chip.
type PPA struct {
	Plane int
	Block int
	Page  int
}

// String formats the address.
func (a PPA) String() string { return fmt.Sprintf("p%d/b%d/pg%d", a.Plane, a.Block, a.Page) }

func (g Geometry) checkPPA(a PPA) {
	if a.Plane < 0 || a.Plane >= g.Planes ||
		a.Block < 0 || a.Block >= g.BlocksPerPlane ||
		a.Page < 0 || a.Page >= g.PagesPerBlock {
		panic(fmt.Sprintf("flash: PPA %v outside geometry %+v", a, g))
	}
}

// PageState is the lifecycle state of one physical page.
type PageState uint8

// Page states.
const (
	PageErased PageState = iota
	PageProgrammed
)

// Token is a page content token: a 64-bit stand-in for 16 KB of data.
type Token uint64

// ErasedToken is the content of an erased (all-ones) page.
const ErasedToken Token = 0

// Chip is one flash memory chip: a single die with multiple planes. Array
// operations serialize on the die; multi-plane commands run one array
// operation covering several planes at once.
type Chip struct {
	eng    *sim.Engine
	name   string
	geo    Geometry
	timing Timing

	die *sim.Resource // array busy; R/B_n abstraction

	pageReg    []Token // per-plane page registers
	vpage      []Token // pnSSD V-page registers (2 in the paper)
	vpageInUse []bool
	vpageWait  []func(reg int) // WaitVPage callers, oldest first; only while all are held

	// The array, one flat slice per field: pages at
	// plane*pagesPerPlane + block*pagesPerBlock + page (pageIndex), blocks
	// at plane*blocksPerPlane + block (blockIndex).
	content    []Token
	state      []PageState
	nextPage   []int // per block: next programmable page index
	eraseCount []int

	reads, programs, erases int64

	freeReads    []*chipRead  // recycled Read records
	freeArrayOps []*arrayOp   // recycled Program and Erase records
	ppaScratch   []PPA        // Program's multi-plane check
	vcommit      [1]ProgramOp // ProgramFromVPage's op, copied at issue

	// faults injects transient read ECC failures; faultKey identifies
	// this chip in the injector's per-chip quota accounting.
	faults   *fault.Injector
	faultKey uint64
}

// NumVPageRegisters is the count of extra V-page registers the pnSSD
// on-die data-plane adds (the paper's cost discussion assumes two).
const NumVPageRegisters = 2

// NewChip builds an erased chip.
func NewChip(eng *sim.Engine, name string, geo Geometry, timing Timing) *Chip {
	geo.Validate()
	c := &Chip{
		eng:        eng,
		name:       name,
		geo:        geo,
		timing:     timing,
		die:        sim.NewResource(eng, name+"/die"),
		pageReg:    make([]Token, geo.Planes),
		vpage:      make([]Token, NumVPageRegisters),
		vpageInUse: make([]bool, NumVPageRegisters),
	}
	pages, blocks := geo.PagesPerChip(), geo.Planes*geo.BlocksPerPlane
	c.content = make([]Token, pages)
	c.state = make([]PageState, pages)
	c.nextPage = make([]int, blocks)
	c.eraseCount = make([]int, blocks)
	return c
}

// Geometry returns the chip geometry.
func (c *Chip) Geometry() Geometry { return c.geo }

// SetFaults attaches a fault injector. key identifies this chip for
// per-chip fault quotas; nil disables injection.
func (c *Chip) SetFaults(inj *fault.Injector, key uint64) {
	c.faults = inj
	c.faultKey = key
}

// AddObserver attaches a hold/queue observer to the die resource,
// alongside any already installed. The die reports one hold per array
// operation, labeled read/program/erase.
func (c *Chip) AddObserver(o sim.ResourceObserver) { c.die.AddObserver(o) }

// DieName returns the die resource's diagnostic name (the trace track
// name for this chip's array operations).
func (c *Chip) DieName() string { return c.die.Name() }

// VPagesHeld counts V-page registers currently claimed — nonzero after a
// drained run indicates a leaked register from an abandoned copy.
func (c *Chip) VPagesHeld() int {
	n := 0
	for _, used := range c.vpageInUse {
		if used {
			n++
		}
	}
	return n
}

// Busy reports whether the die is executing an array operation — the R/B_n
// pin abstraction.
func (c *Chip) Busy() bool { return c.die.Busy() }

// QueueLen reports array operations waiting behind the current one.
func (c *Chip) QueueLen() int { return c.die.QueueLen() }

// Counters returns (reads, programs, erases) executed.
func (c *Chip) Counters() (reads, programs, erases int64) {
	return c.reads, c.programs, c.erases
}

func (c *Chip) pageIndex(a PPA) int {
	return (a.Plane*c.geo.BlocksPerPlane+a.Block)*c.geo.PagesPerBlock + a.Page
}

func (c *Chip) blockIndex(a PPA) int { return a.Plane*c.geo.BlocksPerPlane + a.Block }

// PageStateAt returns the lifecycle state of a page.
func (c *Chip) PageStateAt(a PPA) PageState {
	c.geo.checkPPA(a)
	return c.state[c.pageIndex(a)]
}

// ContentAt returns the stored token of a page (for verification).
func (c *Chip) ContentAt(a PPA) Token {
	c.geo.checkPPA(a)
	return c.content[c.pageIndex(a)]
}

// EraseCount returns the P/E cycle count of a block.
func (c *Chip) EraseCount(plane, block int) int {
	a := PPA{Plane: plane, Block: block}
	c.geo.checkPPA(a)
	return c.eraseCount[c.blockIndex(a)]
}

// checkMultiPlane validates a multi-plane address vector: non-empty,
// distinct planes, within geometry.
func (c *Chip) checkMultiPlane(ppas []PPA) {
	if len(ppas) == 0 || len(ppas) > c.geo.Planes {
		panic(fmt.Sprintf("flash %s: multi-plane op with %d addresses", c.name, len(ppas)))
	}
	seen := 0
	for _, a := range ppas {
		c.geo.checkPPA(a)
		bit := 1 << a.Plane
		if seen&bit != 0 {
			panic(fmt.Sprintf("flash %s: duplicate plane %d in multi-plane op", c.name, a.Plane))
		}
		seen |= bit
	}
}

// Read performs a (multi-plane) page read: after tR the addressed pages'
// contents sit in their planes' page registers and done runs. The die is
// busy for the duration.
func (c *Chip) Read(ppas []PPA, done func()) {
	c.checkMultiPlane(ppas)
	for _, a := range ppas {
		if c.state[c.pageIndex(a)] != PageProgrammed {
			panic(fmt.Sprintf("flash %s: read of unprogrammed page %v", c.name, a))
		}
	}
	r := c.newRead()
	r.addrs = append(r.addrs[:0], ppas...)
	r.done = done
	// An open hold, not a timed one: the ECC fault penalty is drawn at grant.
	c.die.AcquireLabeled("read", r.grant)
}

// chipRead is one queued or sensing Chip.Read. Records are recycled
// through the chip's free list so a steady stream of reads allocates
// nothing: grant and sense are method values bound once when the record
// is created, and addrs keeps its capacity across uses.
type chipRead struct {
	c     *Chip
	addrs []PPA
	done  func()
	grant func() // bound r.granted
	sense func() // bound r.sensed
}

// newRead pops a read record off the free list, building one if empty.
func (c *Chip) newRead() *chipRead {
	if n := len(c.freeReads); n > 0 {
		r := c.freeReads[n-1]
		c.freeReads = c.freeReads[:n-1]
		return r
	}
	r := &chipRead{c: c}
	r.grant = r.granted
	r.sense = r.sensed
	return r
}

// granted runs when the die is granted. The retry ladder extends the
// die-busy window: re-senses hold the array exactly like the first sense
// does on real NAND.
func (r *chipRead) granted() {
	c := r.c
	c.eng.Schedule(c.timing.Read+c.readFaultPenalty(len(r.addrs)), r.sense)
}

// sensed lands the pages in their registers and frees the die. The
// record returns to the free list before done runs, because done may
// issue the next read on this chip.
func (r *chipRead) sensed() {
	c := r.c
	for _, a := range r.addrs {
		c.pageReg[a.Plane] = c.content[c.pageIndex(a)]
	}
	c.reads++
	c.die.Release()
	done := r.done
	r.done = nil
	c.freeReads = append(c.freeReads, r)
	if done != nil {
		done()
	}
}

// readFaultPenalty draws the transient-ECC outcome for each page of a
// read and returns the extra die time the worst page costs. A faulted
// page climbs the read-retry ladder — retry k re-senses at tR plus
// k*ReadRetryStep (modelling shifted-Vref sensing) — and if the ladder is
// exhausted the page relays through the controller's strong ECC engine
// for StrongECCLatency. Planes sense in parallel, so the slowest page
// bounds the multi-plane operation.
func (c *Chip) readFaultPenalty(pages int) sim.Time {
	if c.faults == nil || c.faults.Rate(fault.ReadECC) <= 0 {
		return 0
	}
	cfg := c.faults.Config()
	ras := c.faults.RAS()
	var worst sim.Time
	for p := 0; p < pages; p++ {
		if !c.faults.DrawFor(fault.ReadECC, c.faultKey) {
			continue
		}
		ras.ReadFaults++
		var pen sim.Time
		retries := 0
		recovered := false
		for retries < cfg.ReadRetryMax {
			retries++
			pen += c.timing.Read + sim.Time(retries)*cfg.ReadRetryStep
			if !c.faults.DrawFor(fault.ReadECC, c.faultKey) {
				recovered = true
				break
			}
		}
		ras.ReadRetries += int64(retries)
		ras.RetryLadder.Add(retries)
		if !recovered {
			ras.ReadRelays++
			pen += cfg.StrongECCLatency
		}
		if pen > worst {
			worst = pen
		}
	}
	return worst
}

// ProgramOp names a target page and the token to program into it.
type ProgramOp struct {
	Addr  PPA
	Token Token
}

// Program performs a (multi-plane) page program from supplied tokens. The
// target pages must be erased. NAND's program-in-order rule within a block
// is enforced by the FTL allocator, which hands out pages sequentially;
// the chip itself tolerates out-of-order arrival because multi-path
// fabrics (Omnibus adaptive routing, the mesh) can reorder in-flight
// programs that were issued in order.
func (c *Chip) Program(ops []ProgramOp, done func()) {
	c.program(ops, -1, done)
}

// program issues a Program whose completion frees V-page register vreg
// first, or no register when vreg is -1.
func (c *Chip) program(ops []ProgramOp, vreg int, done func()) {
	c.ppaScratch = c.ppaScratch[:0]
	for _, op := range ops {
		c.ppaScratch = append(c.ppaScratch, op.Addr)
	}
	c.checkMultiPlane(c.ppaScratch)
	for _, op := range ops {
		a := op.Addr
		if c.state[c.pageIndex(a)] != PageErased {
			panic(fmt.Sprintf("flash %s: program of non-erased page %v", c.name, a))
		}
	}
	r := c.newArrayOp(done)
	r.ops = append(r.ops[:0], ops...)
	r.vreg = vreg
	// State is committed at issue time so a read queued behind this program
	// on the die validates against the state it will observe at grant.
	for _, op := range r.ops {
		c.nextPage[c.blockIndex(op.Addr)]++
		c.state[c.pageIndex(op.Addr)] = PageProgrammed
	}
	c.die.UseLabeled("program", c.timing.Program, r.finish)
}

// arrayOp is one queued or running Chip.Program or Chip.Erase, a timed
// hold of the die. Records are recycled through the chip's free list like
// chipRead: finish is a method value bound once, and the ops and blocks
// copies keep their capacity across uses. An erase is a record with
// blocks set.
type arrayOp struct {
	c      *Chip
	ops    []ProgramOp // program targets and tokens
	blocks []PPA       // erase targets; empty for a program
	vreg   int         // V-page register the program frees, or -1
	done   func()
	finish func() // bound r.finished
}

// newArrayOp pops an array-op record off the free list, building one if
// empty.
func (c *Chip) newArrayOp(done func()) *arrayOp {
	var r *arrayOp
	if n := len(c.freeArrayOps); n > 0 {
		r = c.freeArrayOps[n-1]
		c.freeArrayOps = c.freeArrayOps[:n-1]
	} else {
		// A multi-plane op addresses at most one page per plane, so
		// buffers of that capacity never grow.
		r = &arrayOp{c: c, ops: make([]ProgramOp, 0, c.geo.Planes), blocks: make([]PPA, 0, c.geo.Planes)}
		r.finish = r.finished
	}
	r.ops, r.blocks, r.vreg, r.done = r.ops[:0], r.blocks[:0], -1, done
	return r
}

// finished runs as the die hold ends and applies the operation to the
// array. The record returns to the free list before the V-page release
// and done run, because either may issue the next operation on this chip.
func (r *arrayOp) finished() {
	c := r.c
	if len(r.blocks) > 0 {
		for _, a := range r.blocks {
			base := c.pageIndex(a)
			for i := base; i < base+c.geo.PagesPerBlock; i++ {
				c.state[i] = PageErased
				c.content[i] = ErasedToken
			}
			c.nextPage[c.blockIndex(a)] = 0
			c.eraseCount[c.blockIndex(a)]++
		}
		c.erases++
	} else {
		for _, op := range r.ops {
			c.content[c.pageIndex(op.Addr)] = op.Token
		}
		c.programs++
	}
	vreg, done := r.vreg, r.done
	r.done = nil
	c.freeArrayOps = append(c.freeArrayOps, r)
	if vreg >= 0 {
		c.ReleaseVPage(vreg)
	}
	if done != nil {
		done()
	}
}

// ProgramFromVPage programs a V-page register's content into the array —
// the commit step of a flash-to-flash copy. The register is
// freed when the program completes.
func (c *Chip) ProgramFromVPage(reg int, addr PPA, done func()) {
	c.checkVReg(reg)
	if !c.vpageInUse[reg] {
		panic(fmt.Sprintf("flash %s: VCommit from empty V-page register %d", c.name, reg))
	}
	c.vcommit[0] = ProgramOp{Addr: addr, Token: c.vpage[reg]}
	c.program(c.vcommit[:], reg, done)
}

// Erase erases one block per addressed plane (multi-plane erase). All
// pages return to the erased state and the block's P/E count increments.
func (c *Chip) Erase(blocks []PPA, done func()) {
	for i := range blocks {
		blocks[i].Page = 0
	}
	c.checkMultiPlane(blocks)
	r := c.newArrayOp(done)
	r.blocks = append(r.blocks, blocks...)
	c.die.UseLabeled("erase", c.timing.Erase, r.finish)
}

// PageRegister returns the content of a plane's page register.
func (c *Chip) PageRegister(plane int) Token {
	if plane < 0 || plane >= c.geo.Planes {
		panic(fmt.Sprintf("flash %s: plane %d out of range", c.name, plane))
	}
	return c.pageReg[plane]
}

func (c *Chip) checkVReg(reg int) {
	if reg < 0 || reg >= len(c.vpage) {
		panic(fmt.Sprintf("flash %s: V-page register %d out of range", c.name, reg))
	}
}

// AcquireVPage claims a free V-page register, returning its index or -1
// when both are held. WaitVPage is its only caller outside tests, which
// use it to hold registers directly.
func (c *Chip) AcquireVPage() int {
	for i, used := range c.vpageInUse {
		if !used {
			c.vpageInUse[i] = true
			return i
		}
	}
	return -1
}

// WaitVPage claims a V-page register for fn — the buffer-status check the
// Omnibus control plane performs before a grant (Fig 11). fn runs at once
// when a register is free; otherwise it waits in arrival order, and the
// register a commit or abort frees passes straight to the oldest waiter.
func (c *Chip) WaitVPage(fn func(reg int)) {
	if reg := c.AcquireVPage(); reg >= 0 {
		fn(reg)
		return
	}
	c.vpageWait = append(c.vpageWait, fn)
}

// SetVPage stores payload arriving over a v-channel into a claimed V-page
// register.
func (c *Chip) SetVPage(reg int, t Token) {
	c.checkVReg(reg)
	if !c.vpageInUse[reg] {
		panic(fmt.Sprintf("flash %s: store into unclaimed V-page register %d", c.name, reg))
	}
	c.vpage[reg] = t
}

// ReleaseVPage frees a claimed register, handing it straight to the
// oldest WaitVPage waiter if there is one. A commit releases its register
// when the program completes; a direct call aborts a copy.
func (c *Chip) ReleaseVPage(reg int) {
	c.checkVReg(reg)
	if !c.vpageInUse[reg] {
		panic(fmt.Sprintf("flash %s: release of unclaimed V-page register %d", c.name, reg))
	}
	if len(c.vpageWait) == 0 {
		c.vpageInUse[reg] = false
		return
	}
	// Shift the queue down rather than reslice it forward, so appends
	// keep reusing one backing array.
	fn := c.vpageWait[0]
	n := copy(c.vpageWait, c.vpageWait[1:])
	c.vpageWait[n] = nil
	c.vpageWait = c.vpageWait[:n]
	fn(reg)
}

// InstallPage instantly programs a page with no simulated time, for
// warming up device state before a measured run. It bypasses the die and
// must not be called once simulation I/O is in flight.
func (c *Chip) InstallPage(a PPA, t Token) {
	c.geo.checkPPA(a)
	i := c.pageIndex(a)
	if c.state[i] != PageErased {
		panic(fmt.Sprintf("flash %s: install over programmed page %v", c.name, a))
	}
	c.state[i] = PageProgrammed
	c.content[i] = t
	c.nextPage[c.blockIndex(a)]++
}

// ArrayState is a saved copy of a chip's array: every page's content and
// state, every block's next page and erase count, and the operation
// counters. It carries warmed-up device state from one chip to a fresh
// chip of the same geometry.
type ArrayState struct {
	content                 []Token
	state                   []PageState
	nextPage, eraseCount    []int
	reads, programs, erases int64
}

// SaveArray returns a copy of the chip's array.
func (c *Chip) SaveArray() *ArrayState {
	return &ArrayState{
		content:    slices.Clone(c.content),
		state:      slices.Clone(c.state),
		nextPage:   slices.Clone(c.nextPage),
		eraseCount: slices.Clone(c.eraseCount),
		reads:      c.reads, programs: c.programs, erases: c.erases,
	}
}

// RestoreArray overwrites the chip's array with a copy of a, which must
// come from a chip of the same geometry. Like InstallPage it bypasses the
// die and must not be called once simulation I/O is in flight.
func (c *Chip) RestoreArray(a *ArrayState) {
	if len(a.content) != len(c.content) || len(a.nextPage) != len(c.nextPage) {
		panic(fmt.Sprintf("flash %s: restore of a %d-page array into %+v", c.name, len(a.content), c.geo))
	}
	copy(c.content, a.content)
	copy(c.state, a.state)
	copy(c.nextPage, a.nextPage)
	copy(c.eraseCount, a.eraseCount)
	c.reads, c.programs, c.erases = a.reads, a.programs, a.erases
}
