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

// Validate reports a geometry with a field that is not positive.
func (g Geometry) Validate() error {
	if g.Planes <= 0 || g.BlocksPerPlane <= 0 || g.PagesPerBlock <= 0 || g.PageSize <= 0 {
		return fmt.Errorf("flash: invalid geometry %+v", g)
	}
	return nil
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
	vpageWait  sim.Queue[vpageWaiter] // WaitVPage callers, oldest first; only while all are held

	// The chip's windows of its Array's slabs: pages at
	// plane*pagesPerPlane + block*pagesPerBlock + page (pageIndex), blocks
	// at plane*blocksPerPlane + block (blockIndex).
	content    []Token
	state      []PageState
	nextPage   []int // per block: next programmable page index
	eraseCount []int

	reads, programs, erases int64

	ppaScratch []PPA // Program's multi-plane check

	// The queued and running array operations (reads, programs and
	// erases), oldest first, and their targets (read pages, programmed
	// pages and tokens, or erased blocks) in the same order. The die
	// grants holds in request order and runs one at a time, so the
	// oldest op is always the next to finish, and a grant is for the op
	// that held, the count granted and not yet finished, skips past: one
	// while a release hands the die from one op to the next, else none.
	// grantOp and finishOp, bound at the chip's first op, are every die
	// hold's grant hook and completion.
	ops      sim.Queue[dieOp]
	targets  sim.Queue[ProgramOp]
	held     int
	grantOp  func() sim.Time // bound c.opGranted
	finishOp func()          // bound c.opFinished

	// faults injects transient read ECC failures; faultKey identifies
	// this chip in the injector's per-chip quota accounting.
	faults   *fault.Injector
	faultKey uint64
}

// NumVPageRegisters is the count of extra V-page registers the pnSSD
// on-die data-plane adds (the paper's cost discussion assumes two).
const NumVPageRegisters = 2

// NewChip builds an erased chip: the one-chip case of NewArray.
func NewChip(eng *sim.Engine, name string, geo Geometry, timing Timing) *Chip {
	return &NewArray(eng, 1, func(b []byte, _ int) []byte { return append(b, name...) }, geo, timing).Chips[0]
}

// Array is a set of chips built together. Their page and block state,
// registers and dies live in a few array-wide slabs, and each chip holds
// a capacity-limited window of every slab, so no chip can grow into its
// neighbour's.
type Array struct {
	Chips []Chip

	content    []Token
	state      []PageState
	nextPage   []int
	eraseCount []int
}

// NewArray builds n erased chips of one geometry; name appends chip i's
// name to b. A geometry that fails Validate panics with its error.
func NewArray(eng *sim.Engine, n int, name func(b []byte, i int) []byte, geo Geometry, timing Timing) *Array {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	pages, blocks := geo.PagesPerChip(), geo.Planes*geo.BlocksPerPlane
	a := &Array{
		Chips:      make([]Chip, n),
		content:    make([]Token, n*pages),
		state:      make([]PageState, n*pages),
		nextPage:   make([]int, n*blocks),
		eraseCount: make([]int, n*blocks),
	}
	// A chip's name is its die's name less the "/die" suffix.
	dies := sim.Names(n, func(b []byte, i int) []byte { return append(name(b, i), "/die"...) })
	res := sim.NewResources(eng, dies)
	pageReg := make([]Token, n*geo.Planes)
	vpage := make([]Token, n*NumVPageRegisters)
	vpageInUse := make([]bool, n*NumVPageRegisters)
	for i := range a.Chips {
		a.Chips[i] = Chip{
			eng:        eng,
			name:       dies[i][:len(dies[i])-len("/die")],
			geo:        geo,
			timing:     timing,
			die:        &res[i],
			pageReg:    window(pageReg, i, geo.Planes),
			vpage:      window(vpage, i, NumVPageRegisters),
			vpageInUse: window(vpageInUse, i, NumVPageRegisters),
			content:    window(a.content, i, pages),
			state:      window(a.state, i, pages),
			nextPage:   window(a.nextPage, i, blocks),
			eraseCount: window(a.eraseCount, i, blocks),
		}
	}
	return a
}

// Reset returns every chip of an idle array to its state at NewArray:
// all pages erased, erase counts, registers and counters zero, no fault
// injector, and each die idle with no observer. Chips keep their slab
// windows, their operation queues' capacity and their bound
// completions. A chip with an operation in flight or queued panics, as
// its die does.
func (a *Array) Reset() {
	clear(a.content)
	clear(a.state)
	clear(a.nextPage)
	clear(a.eraseCount)
	for i := range a.Chips {
		a.Chips[i].reset()
	}
}

// reset is Array.Reset for one chip, whose page and block windows the
// array has already cleared.
func (c *Chip) reset() {
	c.die.Reset()
	clear(c.pageReg)
	clear(c.vpage)
	clear(c.vpageInUse)
	*c = Chip{
		eng: c.eng, name: c.name, geo: c.geo, timing: c.timing, die: c.die,
		pageReg: c.pageReg, vpage: c.vpage, vpageInUse: c.vpageInUse, vpageWait: c.vpageWait,
		content: c.content, state: c.state, nextPage: c.nextPage, eraseCount: c.eraseCount,
		ops: c.ops, targets: c.targets, grantOp: c.grantOp, finishOp: c.finishOp, ppaScratch: c.ppaScratch[:0],
	}
}

// window returns the i-th n-element window of a slab, its capacity
// limited so that an append copies rather than spills into window i+1.
func window[T any](slab []T, i, n int) []T { return slab[i*n : (i+1)*n : (i+1)*n] }

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
	t := c.targets.PushN(len(ppas))
	for i, a := range ppas {
		t[i] = ProgramOp{Addr: a}
	}
	c.queueOp(dieOp{kind: opRead, n: len(ppas), vreg: -1, done: done})
}

// readFaultPenalty draws the transient-ECC outcome for each page of a
// read and returns the extra die time the worst page costs. A faulted
// page climbs the read-retry ladder — retry k re-senses at tR plus
// k*fault.ReadRetryStep (modelling shifted-Vref sensing) — and if the
// ladder is exhausted the page relays through the controller's strong
// ECC engine for fault.StrongECCLatency. Planes sense in parallel, so the slowest page
// bounds the multi-plane operation.
func (c *Chip) readFaultPenalty(pages int) sim.Time {
	if c.faults == nil || c.faults.Rate(fault.ReadECC) <= 0 {
		return 0
	}
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
		for retries < fault.ReadRetryMax {
			retries++
			pen += c.timing.Read + sim.Time(retries)*fault.ReadRetryStep
			if !c.faults.DrawFor(fault.ReadECC, c.faultKey) {
				recovered = true
				break
			}
		}
		ras.ReadRetries += int64(retries)
		ras.RetryLadder.Add(retries)
		if !recovered {
			ras.ReadRelays++
			pen += fault.StrongECCLatency
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
	// State is committed at issue time so a read queued behind this program
	// on the die validates against the state it will observe at grant.
	for _, op := range ops {
		c.nextPage[c.blockIndex(op.Addr)]++
		c.state[c.pageIndex(op.Addr)] = PageProgrammed
	}
	copy(c.targets.PushN(len(ops)), ops)
	c.queueOp(dieOp{kind: opProgram, n: len(ops), vreg: vreg, done: done})
}

// dieOp is one queued or running array operation, a hold of the die
// whose n targets wait in the chip's target queue.
type dieOp struct {
	kind opKind
	n    int
	vreg int // V-page register a program frees, or -1
	done func()
}

// opKind is what a dieOp does to the array; it indexes opLabels.
type opKind uint8

const (
	opRead opKind = iota
	opProgram
	opErase
)

// opLabels are the die-hold labels observers see, by opKind.
var opLabels = [...]string{opRead: "read", opProgram: "program", opErase: "erase"}

// queueOp queues op, whose targets its caller has just queued, and
// requests its die hold in the same step, so the queue keeps the order
// the die grants in.
func (c *Chip) queueOp(op dieOp) {
	if c.finishOp == nil {
		c.grantOp, c.finishOp = c.opGranted, c.opFinished
	}
	c.ops.Push(op)
	c.die.UseGranted(opLabels[op.kind], c.grantOp, c.finishOp)
}

// opGranted runs when the die is granted to an op and returns how long
// the op holds it: tPROG, tBERS, or tR plus the read's ECC fault
// penalty, drawn here so penalties are drawn in grant order. The retry
// ladder extends the die-busy window: re-senses hold the array exactly
// like the first sense does on real NAND.
func (c *Chip) opGranted() sim.Time {
	op := c.ops.Peek(c.held)
	c.held++
	switch op.kind {
	case opRead:
		return c.timing.Read + c.readFaultPenalty(op.n)
	case opProgram:
		return c.timing.Program
	}
	return c.timing.Erase
}

// opFinished runs as the die is released by the oldest op and applies
// it to the array: a read lands its pages in their registers, a program
// stores its tokens, an erase wipes its blocks. The op leaves the queues
// before the V-page release and done run, because either may issue the
// next op on this chip.
func (c *Chip) opFinished() {
	op := c.ops.Pop()
	targets := c.targets.PopN(op.n)
	c.held--
	switch op.kind {
	case opRead:
		for _, t := range targets {
			c.pageReg[t.Addr.Plane] = c.content[c.pageIndex(t.Addr)]
		}
		c.reads++
	case opProgram:
		for _, t := range targets {
			c.content[c.pageIndex(t.Addr)] = t.Token
		}
		c.programs++
	case opErase:
		for _, t := range targets {
			base := c.pageIndex(t.Addr)
			for i := base; i < base+c.geo.PagesPerBlock; i++ {
				c.state[i] = PageErased
				c.content[i] = ErasedToken
			}
			c.nextPage[c.blockIndex(t.Addr)] = 0
			c.eraseCount[c.blockIndex(t.Addr)]++
		}
		c.erases++
	}
	if op.vreg >= 0 {
		c.ReleaseVPage(op.vreg)
	}
	if op.done != nil {
		op.done()
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
	c.program([]ProgramOp{{Addr: addr, Token: c.vpage[reg]}}, reg, done)
}

// Erase erases one block per addressed plane (multi-plane erase). All
// pages return to the erased state and the block's P/E count increments.
func (c *Chip) Erase(blocks []PPA, done func()) {
	for i := range blocks {
		blocks[i].Page = 0
	}
	c.checkMultiPlane(blocks)
	t := c.targets.PushN(len(blocks))
	for i, b := range blocks {
		t[i] = ProgramOp{Addr: b}
	}
	c.queueOp(dieOp{kind: opErase, n: len(blocks), vreg: -1, done: done})
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
// Omnibus control plane performs before a grant (Fig 11) — storing its
// index in *reg before fn runs. fn runs at once when a register is free;
// otherwise it waits in arrival order, and the register a commit or
// abort frees passes straight to the oldest waiter.
func (c *Chip) WaitVPage(reg *int, fn func()) {
	if r := c.AcquireVPage(); r >= 0 {
		*reg = r
		fn()
		return
	}
	c.vpageWait.Push(vpageWaiter{reg, fn})
}

// vpageWaiter is one parked WaitVPage call.
type vpageWaiter struct {
	reg *int
	fn  func()
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
	if c.vpageWait.Len() == 0 {
		c.vpageInUse[reg] = false
		return
	}
	w := c.vpageWait.Pop()
	*w.reg = reg
	w.fn()
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

// ArrayState is a saved copy of an Array: every page's content and
// state, every block's next page and erase count, and each chip's
// operation counters. It carries warmed-up device state from one array
// to a fresh array of the same size and geometry.
type ArrayState struct {
	content              []Token
	state                []PageState
	nextPage, eraseCount []int
	counters             [][3]int64 // per chip: reads, programs, erases
}

// Save returns a copy of the array's state.
func (a *Array) Save() *ArrayState {
	s := &ArrayState{
		content:    slices.Clone(a.content),
		state:      slices.Clone(a.state),
		nextPage:   slices.Clone(a.nextPage),
		eraseCount: slices.Clone(a.eraseCount),
		counters:   make([][3]int64, len(a.Chips)),
	}
	for i := range a.Chips {
		c := &a.Chips[i]
		s.counters[i] = [3]int64{c.reads, c.programs, c.erases}
	}
	return s
}

// Restore overwrites the array's state with a copy of s, which must come
// from an array of the same size and geometry. Like InstallPage it
// bypasses the dies and must not be called once simulation I/O is in
// flight.
func (a *Array) Restore(s *ArrayState) {
	if len(s.content) != len(a.content) || len(s.nextPage) != len(a.nextPage) || len(s.counters) != len(a.Chips) {
		panic(fmt.Sprintf("flash: restore of a %d-page, %d-block array into %d pages and %d blocks",
			len(s.content), len(s.nextPage), len(a.content), len(a.nextPage)))
	}
	copy(a.content, s.content)
	copy(a.state, s.state)
	copy(a.nextPage, s.nextPage)
	copy(a.eraseCount, s.eraseCount)
	for i := range a.Chips {
		c := &a.Chips[i]
		c.reads, c.programs, c.erases = s.counters[i][0], s.counters[i][1], s.counters[i][2]
	}
}
