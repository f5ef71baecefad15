// Package ftl implements the flash translation layer: page-level logical
// to physical mapping, the PCWD/PWCD page allocation policies, and three
// garbage collectors — parallel GC (PaGC, the paper's baseline), a
// semi-preemptive GC, and the paper's Spatial GC, which partitions the
// ways into an I/O group and a GC group so collection runs concurrently
// with host I/O on physically disjoint flash (Sec VI).
//
// The FTL talks to the flash exclusively through a controller.Fabric, so
// the identical mapping and GC logic runs against every architecture and
// all performance differences come from the interconnect.
package ftl

import (
	"fmt"
	"math"

	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// GCMode selects the garbage collection engine.
type GCMode int

// GC modes.
const (
	GCNone       GCMode = iota // never collect (for no-GC experiments)
	GCParallel                 // PaGC: all chips collect at once
	GCPreemptive               // semi-preemptive: yields to host I/O between copies
	GCSpatial                  // SpGC: I/O group vs GC group (Sec VI)
)

// String names the mode.
func (m GCMode) String() string {
	switch m {
	case GCNone:
		return "none"
	case GCParallel:
		return "pagc"
	case GCPreemptive:
		return "preemptive"
	case GCSpatial:
		return "spgc"
	default:
		return fmt.Sprintf("gcmode(%d)", int(m))
	}
}

// VictimPolicy selects how GC picks victim blocks.
type VictimPolicy int

// Victim selection policies.
const (
	// VictimGreedy picks the blocks with the fewest valid pages — the
	// paper's baseline policy.
	VictimGreedy VictimPolicy = iota
	// VictimCostBenefit weighs reclaimed space against copy cost and
	// block age: maximize (1-u)/(2u) * age, the classic cleaning policy.
	// Cold blocks are preferred at equal utilization.
	VictimCostBenefit
)

// String names the policy.
func (p VictimPolicy) String() string {
	if p == VictimCostBenefit {
		return "cost-benefit"
	}
	return "greedy"
}

// Config parameterizes the FTL.
type Config struct {
	Policy AllocPolicy
	GCMode GCMode
	// Victim selects the GC victim policy (default greedy, as the paper).
	Victim VictimPolicy
	// GCThreshold triggers collection when the free-block fraction drops
	// below it.
	GCThreshold float64
	// GCGroupFraction is the fraction of ways assigned to the GC group
	// under SpGC; the paper uses 1/2 and discusses 1/4 as an ablation.
	GCGroupFraction float64
	// Map enables the FMMU-style demand-paged map unit (map.go); nil
	// selects flat mapping, byte-identical to builds without the unit.
	Map *MapConfig
}

// DefaultConfig returns the paper's FTL parameters.
func DefaultConfig() Config {
	return Config{
		Policy:          PCWD,
		GCMode:          GCParallel,
		GCThreshold:     0.25,
		GCGroupFraction: 0.5,
	}
}

// unmapped marks an l2p or p2l entry that maps nothing.
const unmapped = -1

// Stats aggregates FTL activity over a run.
type Stats struct {
	HostReads      int64
	HostWrites     int64
	GCRounds       int64
	GCPagesCopied  int64
	GCBlocksErased int64
	GCTotalTime    sim.Time
	GCLastTime     sim.Time
	WriteStalls    int64
}

// FTL is the translation layer over one fabric.
type FTL struct {
	eng *sim.Engine
	fab controller.Fabric
	cfg Config
	geo flash.Geometry

	channels, ways int
	numLPNs        int64

	// l2p and p2l are int32, halving the device's largest allocations:
	// New rejects a grid of 2^31 or more physical pages.
	l2p    []int32 // lpn -> phys, or unmapped
	p2l    []int32 // phys -> lpn, or unmapped
	planes []planeState
	// blocks and freeLists are the slabs behind every plane's block
	// records and free list (newPlanes).
	blocks    []blockInfo
	freeLists []int
	alloc     *allocator

	// SpGC group masks: gcLo/gcHi hold the GC group's slots and ioLo/ioHi
	// the I/O group's, when gcGroupLo is true/false.
	gcLo, gcHi, ioLo, ioHi slotBits

	// in-flight write tracking: reads of an LPN with a write in flight
	// wait for the write to land.
	inflightWrites map[int64]int
	writeWaiters   map[int64][]func()

	// writes stalled on allocation space, retried as blocks free up;
	// retryStalled swaps stalled with the spare buffer.
	stalled, stalledSpare []*hostWrite

	freeReads   []*hostRead     // recycled ReadTracked records
	freeWrites  []*hostWrite    // recycled write records
	freeVictims []*victimRun    // recycled GC victim records
	targets     []pendingTarget // tryWrite scratch
	victims     []victim        // selectVictims result
	cands       []victimCand    // selectVictims scratch

	// reserveBlocks is the pool of free blocks host writes may not consume
	// — headroom that guarantees GC can always allocate copy destinations.
	reserveBlocks int

	outstanding int // host ops in flight (preemptive GC probe)

	gcActive  bool
	gcGroupLo bool // SpGC: true when the low-way half is the GC group
	// gcBoundary is the SpGC group width in ways: GCGroupFraction of the
	// ways, clamped to leave both groups non-empty.
	gcBoundary int
	maybeGC    func() // bound f.maybeTriggerGC
	stats      Stats

	// round is the GC round in flight, and victimDone, bound at the
	// first round, is each of its victims' completion.
	round      gcRound
	victimDone func() // bound f.victimCollected

	// faults draws program/erase failure outcomes; nil means no injection.
	faults *fault.Injector

	// trc records GC-round and write-stall spans; nil (the default)
	// disables tracing with no overhead.
	trc    *trace.Recorder
	gcSpan trace.SpanID

	// tel feeds GC activity windows and per-request stall attribution;
	// nil (the default) disables telemetry with no overhead.
	tel *telemetry.Collector

	// sink receives page-commit notifications for invariant checking; nil
	// (the default) disables the hook with no overhead.
	sink CheckSink

	// mapu is the FMMU map unit; nil selects flat mapping with zero
	// translation overhead (map.go).
	mapu *mapUnit
}

// CheckSink receives the FTL's authoritative record of what every LPN
// should contain: one PageWritten per committed mapping update, covering
// host writes, warm-up installs, and fault-remapped reissues. The
// invariant checker uses it to verify page conservation at drain.
type CheckSink interface {
	PageWritten(lpn int64, tok flash.Token)
}

// SetChecker attaches a page-commit sink; nil (the default) detaches.
func (f *FTL) SetChecker(s CheckSink) { f.sink = s }

// Validate reports why New would refuse cfg over a channels×ways grid
// of geo chips exporting numLPNs logical pages, or nil. The GC mode and
// victim policy must be known ones and the allocation order a
// permutation of plane, channel and way. The grid and geometry fields
// must be positive. The physical page count must stay below 2^31, the
// int32 maps' bound, and is formed so that no product can overflow
// first; numLPNs must lie in (0, raw) to leave over-provisioning; SpGC
// needs GCGroupFraction in (0,1); and the map unit, when configured,
// must be valid, and its region, the logical pages and the GC reserve
// must fit the device together, so a warm-up can install every page.
func (c Config) Validate(channels, ways int, geo flash.Geometry, numLPNs int64) error {
	if c.GCMode < GCNone || c.GCMode > GCSpatial {
		return fmt.Errorf("ftl: unknown GC mode %v", c.GCMode)
	}
	if c.Victim != VictimGreedy && c.Victim != VictimCostBenefit {
		return fmt.Errorf("ftl: unknown victim policy %d (want greedy or cost-benefit)", int(c.Victim))
	}
	var seen [3]bool
	for _, d := range c.Policy.Order {
		if d < DimPlane || d > DimWay || seen[d] {
			return fmt.Errorf("ftl: allocation order %v is not a permutation of plane, channel and way", c.Policy.Order)
		}
		seen[d] = true
	}
	raw := int64(1)
	for _, n := range []int{channels, ways, geo.Planes, geo.BlocksPerPlane, geo.PagesPerBlock} {
		if n <= 0 {
			return fmt.Errorf("ftl: %d×%d chips of geometry %+v", channels, ways, geo)
		}
		if raw > math.MaxInt32/int64(n) {
			return fmt.Errorf("ftl: %d×%d chips of %d×%d×%d pages exceed the int32 maps' bound of %d physical pages",
				channels, ways, geo.Planes, geo.BlocksPerPlane, geo.PagesPerBlock, math.MaxInt32)
		}
		raw *= int64(n)
	}
	if numLPNs <= 0 || numLPNs >= raw {
		return fmt.Errorf("ftl: logical capacity %d must be in (0, %d)", numLPNs, raw)
	}
	if c.GCMode == GCSpatial && !(c.GCGroupFraction > 0 && c.GCGroupFraction < 1) {
		return fmt.Errorf("ftl: GCGroupFraction %v must be in (0,1)", c.GCGroupFraction)
	}
	if c.Map == nil {
		return nil
	}
	if err := c.Map.Validate(); err != nil {
		return err
	}
	if mapEntriesPerPage(geo) <= 0 {
		return fmt.Errorf("ftl: a %d-byte page holds no map entry", geo.PageSize)
	}
	ppb, need, reserve := int64(geo.PagesPerBlock), mapBlocks(geo, numLPNs), int64(channels)*int64(ways)
	if (need+reserve)*ppb+numLPNs > raw {
		return fmt.Errorf("ftl: the map region needs %d blocks, the device has %d, too few to also hold a %d-block GC reserve and %d logical pages",
			need, raw/ppb, reserve, numLPNs)
	}
	return nil
}

// New builds an FTL over the fabric. numLPNs is the exported logical
// capacity in pages; it must leave over-provisioning headroom below the
// raw capacity or GC cannot make progress. New panics with the error of
// Config.Validate.
func New(eng *sim.Engine, fab controller.Fabric, cfg Config, numLPNs int64) *FTL {
	grid := fab.Grid()
	geo := grid.Chip(controller.ChipID{Channel: 0, Way: 0}).Geometry()
	if err := cfg.Validate(grid.Channels, grid.Ways, geo, numLPNs); err != nil {
		panic(err)
	}
	raw := int64(grid.NumChips()) * int64(geo.PagesPerChip())
	f := &FTL{
		eng:            eng,
		fab:            fab,
		geo:            geo,
		channels:       grid.Channels,
		ways:           grid.Ways,
		p2l:            make([]int32, raw),
		inflightWrites: make(map[int64]int),
		writeWaiters:   make(map[int64][]func()),
		gcGroupLo:      false,                     // first SpGC round collects the high half
		reserveBlocks:  grid.Channels * grid.Ways, // one block per chip, as Validate assumes
	}
	f.configure(cfg, numLPNs)
	fillUnmapped(f.l2p)
	fillUnmapped(f.p2l)
	f.planes, f.blocks, f.freeLists = newPlanes(f.alloc, f.ways, geo)
	f.maybeGC = f.maybeTriggerGC
	if cfg.Map != nil {
		f.mapu = newMapUnit(f, *cfg.Map)
	}
	return f
}

// configure sets what New and Reset both derive from cfg and numLPNs:
// the configuration itself, the logical capacity with l2p at its length
// (re-sliced, grown only past its capacity, entries left to the
// caller), an allocator for the policy (a fresh one, counting nothing,
// when the order changes), and the SpGC group boundary and masks.
func (f *FTL) configure(cfg Config, numLPNs int64) {
	if f.alloc == nil || cfg.Policy.Order != f.cfg.Policy.Order {
		f.alloc = newAllocator(cfg.Policy, f.channels, f.ways, f.geo.Planes)
	}
	f.cfg, f.numLPNs = cfg, numLPNs
	if int64(cap(f.l2p)) < numLPNs {
		f.l2p = make([]int32, numLPNs)
	}
	f.l2p = f.l2p[:numLPNs]
	f.gcBoundary = min(max(int(float64(f.ways)*cfg.GCGroupFraction), 1), f.ways-1)
	f.gcLo, f.ioLo = f.alloc.waysMask(0, f.gcBoundary), f.alloc.waysMask(f.gcBoundary, f.ways)
	f.gcHi, f.ioHi = f.alloc.waysMask(f.ways-f.gcBoundary, f.ways), f.alloc.waysMask(0, f.ways-f.gcBoundary)
}

// fillUnmapped sets every entry of a map slab to unmapped.
func fillUnmapped(m []int32) {
	for i := range m {
		m[i] = unmapped
	}
}

// Reset returns a drained FTL to the state New(eng, fab, cfg, numLPNs)
// leaves it in: every LPN unmapped, every block erased and free, zero
// stats, no GC round, and no injector, tracer, collector or checker
// attached; the map unit carves its region and installs its directory
// again. cfg may change any per-run setting (allocation policy, GC mode,
// victim policy, threshold, group fraction) and, without a map unit,
// numLPNs; the map unit's configuration and, with one, numLPNs are its
// structure, and a cfg or numLPNs that changes them panics, as one that
// New would refuse does. Slabs, maps and recycled records keep their
// capacity. The chips must have been reset first, since the directory
// is programmed into them. An FTL with host operations, writes or a GC
// round in flight panics.
func (f *FTL) Reset(cfg Config, numLPNs int64) {
	if f.outstanding != 0 || len(f.inflightWrites) != 0 || len(f.stalled) != 0 || f.gcActive {
		panic(fmt.Sprintf("ftl: reset with %d host ops, %d LPN writes and %d stalled writes in flight (GC active: %v)",
			f.outstanding, len(f.inflightWrites), len(f.stalled), f.gcActive))
	}
	if (cfg.Map == nil) != (f.mapu == nil) || f.mapu != nil && (cfg.Map.withDefaults() != f.mapu.cfg || numLPNs != f.numLPNs) {
		panic(fmt.Sprintf("ftl: reset to map unit %v over %d LPNs of an FTL built with %v over %d", cfg.Map, numLPNs, f.cfg.Map, f.numLPNs))
	}
	if err := cfg.Validate(f.channels, f.ways, f.geo, numLPNs); err != nil {
		panic(err)
	}
	f.configure(cfg, numLPNs)
	fillUnmapped(f.l2p)
	fillUnmapped(f.p2l)
	a := f.alloc
	a.cursor, a.freeBlocks = 0, 0
	clear(a.open)
	clear(a.gcOpen)
	clear(a.free)
	clear(f.blocks)
	formatPlanes(a, f.ways, f.geo, f.planes, f.blocks, f.freeLists)
	f.targets, f.victims, f.cands = f.targets[:0], f.victims[:0], f.cands[:0]
	f.gcGroupLo = false
	f.stats = Stats{}
	f.faults, f.trc, f.gcSpan, f.tel, f.sink = nil, nil, trace.SpanID{}, nil, nil
	if f.mapu != nil {
		f.mapu.reset()
	}
}

// Stats returns a copy of the accumulated statistics.
func (f *FTL) Stats() Stats { return f.stats }

// SetFaults attaches the fault injector; nil disables injection.
func (f *FTL) SetFaults(inj *fault.Injector) { f.faults = inj }

// SetTracer attaches a trace recorder for GC-round and write-stall spans;
// nil (the default) detaches.
func (f *FTL) SetTracer(t *trace.Recorder) { f.trc = t }

// SetTelemetry attaches a telemetry collector for GC activity windows
// and stall attribution; nil (the default) detaches.
func (f *FTL) SetTelemetry(c *telemetry.Collector) { f.tel = c }

// chipKey identifies a chip in the injector's per-chip quota maps.
func (f *FTL) chipKey(id controller.ChipID) uint64 {
	return uint64(id.Channel*f.ways + id.Way)
}

// ras returns the RAS counters (non-nil only when an injector with RAS
// accounting is attached). Fault-handling paths only run after a draw
// fired, which requires a live injector, so they may use it directly.
func (f *FTL) ras() *stats.RAS { return f.faults.RAS() }

// RetiredBlocks counts blocks permanently removed from service.
func (f *FTL) RetiredBlocks() int {
	n := 0
	for i := range f.planes {
		for _, bi := range f.planes[i].blocks {
			if bi.bad {
				n++
			}
		}
	}
	return n
}

// NumLPNs returns the exported logical capacity in pages.
func (f *FTL) NumLPNs() int64 { return f.numLPNs }

// GCActive reports whether a collection round is in progress.
func (f *FTL) GCActive() bool { return f.gcActive }

// Outstanding returns host operations in flight.
func (f *FTL) Outstanding() int { return f.outstanding }

// InflightWriteLPNs returns the number of LPNs with writes still in
// flight — nonzero after a drained run indicates a leaked reference.
func (f *FTL) InflightWriteLPNs() int { return len(f.inflightWrites) }

// StalledWrites returns writes parked on allocation space — nonzero after
// a drained run indicates the device wedged out of space.
func (f *FTL) StalledWrites() int { return len(f.stalled) }

func (f *FTL) planeAt(id controller.ChipID, plane int) *planeState {
	chipIdx := id.Channel*f.ways + id.Way
	return &f.planes[chipIdx*f.geo.Planes+plane]
}

func (f *FTL) checkLPN(lpn int64) {
	if lpn < 0 || lpn >= f.numLPNs {
		panic(fmt.Sprintf("ftl: LPN %d outside [0,%d)", lpn, f.numLPNs))
	}
}

// FreeBlockFraction returns the fraction of all blocks currently erased.
func (f *FTL) FreeBlockFraction() float64 {
	return float64(f.alloc.freeBlocks) / float64(len(f.planes)*f.geo.BlocksPerPlane)
}

// TokenFor derives the content token the FTL writes for a (lpn, version)
// pair; tests use it to verify end-to-end data integrity.
func TokenFor(lpn int64, version int64) flash.Token {
	x := uint64(lpn)*0x9E3779B97F4A7C15 + uint64(version)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return flash.Token(x)
}

// Map returns the physical location backing an LPN and whether it is
// mapped.
func (f *FTL) Map(lpn int64) (controller.ChipID, flash.PPA, bool) {
	f.checkLPN(lpn)
	phys := int64(f.l2p[lpn])
	if phys == unmapped {
		return controller.ChipID{}, flash.PPA{}, false
	}
	id, addr := physDecode(f.geo, f.ways, phys)
	return id, addr, true
}

// Content returns the token programmed at an LPN's mapped page, and
// false when the LPN is unmapped or its page is not programmed: the one
// probe checkers read a device's logical contents through.
func (f *FTL) Content(lpn int64) (flash.Token, bool) {
	id, addr, ok := f.Map(lpn)
	if !ok {
		return 0, false
	}
	chip := f.fab.Grid().Chip(id)
	if chip.PageStateAt(addr) != flash.PageProgrammed {
		return 0, false
	}
	return chip.ContentAt(addr), true
}

// warmupSlot picks an allocation slot for instant warm-up writes. Like
// host writes it must not strand the device without erased blocks: slots
// with an open active block are preferred, and a new block is opened only
// while the GC reserve stays intact. Without this, warm-up churn would
// open one partial block in every plane and leave zero erased blocks —
// a state from which GC cannot allocate a single copy destination.
func (f *FTL) warmupSlot() (slot, bool) {
	if s, ok := f.alloc.nextSet(f.alloc.open, nil, nil); ok || f.alloc.freeBlocks <= f.reserveBlocks {
		return s, ok
	}
	return f.alloc.nextSet(f.alloc.free, nil, nil)
}

// Install instantly maps and programs an LPN for pre-run warmup, consuming
// no simulated time. It uses the normal allocator so warmed-up layouts
// match what the policy would have produced.
func (f *FTL) Install(lpn int64, tok flash.Token) {
	f.checkLPN(lpn)
	if f.l2p[lpn] != unmapped {
		panic(fmt.Sprintf("ftl: Install over mapped LPN %d", lpn))
	}
	s, ok := f.alloc.atCursor(f.alloc.open, f.alloc.free)
	if !ok {
		s, ok = f.alloc.nextSet(f.alloc.open, f.alloc.free, nil)
	}
	if !ok {
		panic("ftl: Install with no space")
	}
	f.installAt(s, lpn, tok)
}

// Reinstall instantly overwrites an already-mapped LPN during warmup:
// the old page is invalidated and a fresh one allocated and programmed,
// consuming no simulated time. Warm-up churn with Reinstall produces the
// realistic block fragmentation GC experiments need without simulating
// millions of writes.
func (f *FTL) Reinstall(lpn int64, tok flash.Token) {
	f.checkLPN(lpn)
	old := int64(f.l2p[lpn])
	if old == unmapped {
		panic(fmt.Sprintf("ftl: Reinstall of unmapped LPN %d", lpn))
	}
	s, ok := f.warmupSlot()
	if !ok {
		panic("ftl: Reinstall with no space (respecting the GC reserve)")
	}
	f.invalidatePhys(old)
	f.installAt(s, lpn, tok)
}

// installAt is the instant placement Install and Reinstall share: it
// allocates the next page of slot s, programs tok there with no
// simulated time, and maps lpn to it.
func (f *FTL) installAt(s slot, lpn int64, tok flash.Token) {
	ps := f.planeAt(s.chip, s.plane)
	block, page, err := ps.allocate()
	if err != nil {
		panic(fmt.Sprintf("ftl: instant install allocation failed: %v", err))
	}
	addr := flash.PPA{Plane: s.plane, Block: block, Page: page}
	f.fab.Grid().Chip(s.chip).InstallPage(addr, tok)
	phys := physIndex(f.geo, f.ways, s.chip, addr)
	f.l2p[lpn] = int32(phys)
	f.p2l[phys] = int32(lpn)
	ps.blocks[block].validCount++
	if f.sink != nil {
		f.sink.PageWritten(lpn, tok)
	}
	if f.mapu != nil {
		f.mapu.warmTouch(lpn)
	}
}

// chipBatch is one multi-plane operation: pages on one chip with
// distinct planes.
type chipBatch struct {
	id   controller.ChipID
	ppas []flash.PPA
	toks []flash.Token
	lpns []int64 // parallel to ppas on write batches; nil on reads
}

// batchByChip groups per-page operations into chip batches, appending to
// batches[:0] and reusing the buffers of its old elements. A page joins
// the chip's most recent batch unless that batch already holds its
// plane, in which case it opens a new one. A batch holds at most one
// page per plane, so a new slot's buffers are made at once with room
// for planes pages and never grow.
func batchByChip(batches []chipBatch, planes int, locs []controller.ChipID, addrs []flash.PPA, toks []flash.Token, lpns []int64) []chipBatch {
	batches = batches[:0]
	for i := range locs {
		id := locs[i]
		bi := len(batches) - 1
		for bi >= 0 && batches[bi].id != id {
			bi--
		}
		if bi >= 0 {
			b := &batches[bi]
			conflict := false
			for _, a := range b.ppas {
				if a.Plane == addrs[i].Plane {
					conflict = true
					break
				}
			}
			if !conflict {
				b.ppas = append(b.ppas, addrs[i])
				if toks != nil {
					b.toks = append(b.toks, toks[i])
				}
				if lpns != nil {
					b.lpns = append(b.lpns, lpns[i])
				}
				continue
			}
		}
		if len(batches) == cap(batches) {
			batches = append(batches, chipBatch{})
		} else {
			batches = batches[:len(batches)+1]
		}
		nb := &batches[len(batches)-1]
		nb.id = id
		if cap(nb.ppas) == 0 {
			nb.ppas = make([]flash.PPA, 0, planes)
		}
		nb.ppas = append(nb.ppas[:0], addrs[i])
		nb.toks, nb.lpns = nb.toks[:0], nb.lpns[:0]
		if toks != nil {
			if cap(nb.toks) == 0 {
				nb.toks = make([]flash.Token, 0, planes)
			}
			nb.toks = append(nb.toks, toks[i])
		}
		if lpns != nil {
			if cap(nb.lpns) == 0 {
				nb.lpns = make([]int64, 0, planes)
			}
			nb.lpns = append(nb.lpns, lpns[i])
		}
	}
	return batches
}

// Read services host page reads for the given LPNs, invoking done when
// every page has arrived in DRAM. Reads of LPNs with writes in flight wait
// for those writes; reads of never-written LPNs panic — warm up first.
func (f *FTL) Read(lpns []int64, done func()) {
	f.ReadTracked(lpns, nil, done)
}

// ReadTracked is Read carrying a latency attribution: time the read
// spends parked behind in-flight writes is credited to the stall
// phase, everything from issue onward to flash. att may be nil.
func (f *FTL) ReadTracked(lpns []int64, att *telemetry.Attribution, done func()) {
	if len(lpns) == 0 {
		panic("ftl: empty read")
	}
	f.outstanding++
	f.stats.HostReads += int64(len(lpns))
	for _, lpn := range lpns {
		f.checkLPN(lpn)
	}
	r := f.newRead()
	r.lpns = append(r.lpns[:0], lpns...)
	r.att, r.done = att, done
	f.readWhenStable(r)
}

// hostRead is one ReadTracked from entry to done. Records are recycled
// through the FTL's free list and keep the capacity of their lpns copy,
// translation scratch and chip batches across uses. Until it issues, a
// read waits on one thing at a time, a write or a translation: fire, a
// method value bound once when the record is created, runs the step that
// step names. Its chip batches then complete in lanes of their own, one
// batchEnd each. So a steady stream of reads allocates nothing.
type hostRead struct {
	f         *FTL
	lpns      []int64
	att       *telemetry.Attribution
	done      func()
	locs      []controller.ChipID
	addrs     []flash.PPA
	batches   []chipBatch
	ends      []*batchEnd // ends[i] completes batches[i]
	remaining int

	step readStep // what fire runs next
	fire func()   // bound r.run
}

// readStep names a host read's steps before it issues.
type readStep uint8

const (
	rdStable readStep = iota // a write it waited on landed
	rdMapped                 // the map unit translated its LPNs
)

// batchEnd completes one chip batch of a hostRead: each is a lane of
// one step, fire.
type batchEnd struct {
	r    *hostRead
	i    int
	fire func() // bound e.complete
}

// newRead pops a read record off the free list, building one if empty.
func (f *FTL) newRead() *hostRead {
	if n := len(f.freeReads); n > 0 {
		r := f.freeReads[n-1]
		f.freeReads = f.freeReads[:n-1]
		return r
	}
	r := &hostRead{f: f}
	r.fire = r.run
	return r
}

// then arms the record's lane with step s and returns its callback.
func (r *hostRead) then(s readStep) func() {
	r.step = s
	return r.fire
}

func (r *hostRead) run() {
	switch r.step {
	case rdStable:
		r.f.readWhenStable(r)
	case rdMapped:
		r.mapped()
	}
}

// readWhenStable issues the read once no target LPN has a write in
// flight. Every wake-up re-checks the whole set: while the read waited on
// one LPN, a fresh write to another may have started, and issuing then
// would read a page whose program has not reached the chip.
func (f *FTL) readWhenStable(r *hostRead) {
	for _, lpn := range r.lpns {
		if f.inflightWrites[lpn] > 0 {
			f.writeWaiters[lpn] = append(f.writeWaiters[lpn], r.then(rdStable))
			return
		}
	}
	// Any wait behind in-flight writes ends here; un-stalled reads
	// mark at their own issue instant and credit an exact zero.
	r.att.Mark(telemetry.PhaseStall, f.eng.Now())
	if f.mapu == nil {
		f.issueRead(r)
		return
	}
	f.mapu.translate(r.lpns, r.then(rdMapped))
}

// mapped resumes a read once the map unit has translated its LPNs.
func (r *hostRead) mapped() {
	f := r.f
	r.att.Mark(telemetry.PhaseMap, f.eng.Now())
	// A fetch consumed simulated time: a write to one of the target
	// LPNs may have started meanwhile, so re-check stability before
	// issuing (any new wait is credited back to the stall phase).
	for _, lpn := range r.lpns {
		if f.inflightWrites[lpn] > 0 {
			f.readWhenStable(r)
			return
		}
	}
	f.issueRead(r)
}

func (f *FTL) issueRead(r *hostRead) {
	r.locs, r.addrs = r.locs[:0], r.addrs[:0]
	for _, lpn := range r.lpns {
		id, addr, ok := f.Map(lpn)
		if !ok {
			panic(fmt.Sprintf("ftl: read of unmapped LPN %d (warm up the footprint first)", lpn))
		}
		r.locs, r.addrs = append(r.locs, id), append(r.addrs, addr)
	}
	r.batches = batchByChip(r.batches, f.geo.Planes, r.locs, r.addrs, nil, nil)
	for len(r.ends) < len(r.batches) {
		e := &batchEnd{r: r, i: len(r.ends)}
		e.fire = e.complete
		r.ends = append(r.ends, e)
	}
	r.remaining = len(r.batches)
	for bi := range r.batches {
		b := &r.batches[bi]
		// Pin the blocks under read so GC cannot erase them while the read
		// is still queued behind channel or die contention.
		for i, a := range b.ppas {
			if f.fab.Grid().Chip(b.id).PageStateAt(a) != flash.PageProgrammed {
				f.erasedReadPanic(r.lpns, b.id, a, i)
			}
			f.planeAt(b.id, a.Plane).blocks[a.Block].readRefs++
		}
		f.fab.Read(b.id, b.ppas, r.ends[bi].fire)
	}
}

// complete unpins the batch's blocks; the read's last batch returns the
// record to the free list and then runs done, which may issue the next
// read.
func (e *batchEnd) complete() {
	r := e.r
	f := r.f
	b := &r.batches[e.i]
	for _, a := range b.ppas {
		f.planeAt(b.id, a.Plane).blocks[a.Block].readRefs--
	}
	r.remaining--
	if r.remaining > 0 {
		return
	}
	done := r.done
	r.att, r.done = nil, nil
	f.freeReads = append(f.freeReads, r)
	f.outstanding--
	done()
}

// erasedReadPanic reports a read issued against a page that is not
// programmed, with the mapping state that explains how it got there.
func (f *FTL) erasedReadPanic(lpns []int64, id controller.ChipID, a flash.PPA, idx int) {
	bi := f.planeAt(id, a.Plane).blocks[a.Block]
	phys := physIndex(f.geo, f.ways, id, a)
	lpn := int64(f.p2l[phys])
	infl := -1
	l2pOfP2L := int64(-2)
	if lpn >= 0 {
		infl = f.inflightWrites[lpn]
		l2pOfP2L = int64(f.l2p[lpn])
	}
	var readLPN, readL2P int64 = -1, -1
	for _, cand := range lpns {
		if int64(f.l2p[cand]) == phys {
			readLPN, readL2P = cand, phys
		}
	}
	panic(fmt.Sprintf("ftl: issueRead of erased page %v on %v (batch idx %d, block state=%d valid=%d inflight=%d refs=%d, p2l=%d inflightWrites[p2l]=%d l2p[p2l]=%d readLPN=%d readL2P=%d inflightWrites[readLPN]=%d phys=%d)",
		a, id, idx, bi.state, bi.validCount, bi.inflight, bi.readRefs, lpn, infl, l2pOfP2L, readLPN, readL2P, f.inflightWrites[readLPN], phys))
}

// Write services host page writes: each LPN gets a fresh physical page
// from the allocation policy, the old page (if any) is invalidated, and
// done fires when every program completes. Writes trigger GC when free
// space drops below the threshold; when no space is allocatable (GC group
// restriction or genuine exhaustion) the write stalls until blocks free.
func (f *FTL) Write(lpns []int64, toks []flash.Token, done func()) {
	f.WriteTracked(lpns, toks, nil, done)
}

// WriteTracked is Write carrying a latency attribution: time blocked
// on free-page allocation (GC stalls) is credited to the stall phase,
// program time from the final full allocation onward to flash. att may
// be nil.
func (f *FTL) WriteTracked(lpns []int64, toks []flash.Token, att *telemetry.Attribution, done func()) {
	if len(lpns) == 0 || len(lpns) != len(toks) {
		panic("ftl: malformed write")
	}
	f.outstanding++
	f.stats.HostWrites += int64(len(lpns))
	w := f.newWrite(lpns, toks, att, done)
	w.host = true
	if f.mapu == nil {
		f.tryWrite(w)
		f.maybeTriggerGC()
		return
	}
	// Even an overwrite consults the map first — honest DFTL lookup
	// traffic: the FTL must know the old physical page to invalidate it.
	f.mapu.translate(w.lpns, w.fire)
}

// hostWrite is one write from entry until its last program lands: a
// WriteTracked, the allocated prefix a stall commits early, or a
// program-fail reissue. A stalled write re-queues the same record.
// Records are recycled through the FTL's free list and keep the capacity
// of their lpns and token copies, chip batches and ProgramOp buffers.
// Before it commits, a write's one step is its translation, fire, a
// method value bound once when the record is created; its chip batches
// then complete in lanes of their own, one writeEnd each. So a steady
// stream of writes allocates nothing.
type hostWrite struct {
	f    *FTL
	lpns []int64
	toks []flash.Token
	att  *telemetry.Attribution
	done func()
	host bool // a WriteTracked: completion drops the outstanding count

	stall trace.SpanID // open write-stall span while parked
	fire  func()       // bound w.mapped

	locs      []controller.ChipID
	addrs     []flash.PPA
	batches   []chipBatch
	ops       [][]flash.ProgramOp // ops[i] programs batches[i]
	ends      []*writeEnd         // ends[i] completes batches[i]
	remaining int
}

// writeEnd completes one chip batch of a hostWrite: each is a lane of
// one step, fire.
type writeEnd struct {
	w    *hostWrite
	i    int
	fire func() // bound e.complete
}

// newWrite pops a write record off the free list, building one if
// empty, and loads copies of lpns and toks.
func (f *FTL) newWrite(lpns []int64, toks []flash.Token, att *telemetry.Attribution, done func()) *hostWrite {
	var w *hostWrite
	if n := len(f.freeWrites); n > 0 {
		w = f.freeWrites[n-1]
		f.freeWrites = f.freeWrites[:n-1]
	} else {
		w = &hostWrite{f: f}
		w.fire = w.mapped
	}
	w.lpns = append(w.lpns[:0], lpns...)
	w.toks = append(w.toks[:0], toks...)
	w.att, w.done = att, done
	return w
}

// mapped resumes a write once the map unit has translated its LPNs.
func (w *hostWrite) mapped() {
	f := w.f
	w.att.Mark(telemetry.PhaseMap, f.eng.Now())
	f.tryWrite(w)
	f.maybeTriggerGC()
}

// hostWriteAllowed reports whether host writes may target a slot right
// now: under active SpGC, writes are restricted to the I/O group, and a
// host write may not open a fresh block when doing so would eat into the
// GC reserve — it stalls until collection frees space instead.
// hostSlot searches the slot bits for exactly this rule;
// CheckConsistency holds it to this slot-by-slot statement.
func (f *FTL) hostWriteAllowed(s slot) bool {
	ps := f.planeAt(s.chip, s.plane)
	if !ps.hasSpace() {
		return false
	}
	if ps.active < 0 && f.cfg.GCMode != GCNone && f.alloc.freeBlocks <= f.reserveBlocks {
		return false
	}
	if f.gcActive && f.cfg.GCMode == GCSpatial && f.inGCGroup(s.chip.Way) {
		return false
	}
	return true
}

// hostSlot returns the next slot that admits a host write: one with a
// host block open or, while the GC reserve allows a new block, a free
// block, outside the GC group during an SpGC round.
func (f *FTL) hostSlot() (slot, bool) {
	var fresh, group slotBits
	if f.cfg.GCMode == GCNone || f.alloc.freeBlocks > f.reserveBlocks {
		fresh = f.alloc.free
	}
	if f.gcActive && f.cfg.GCMode == GCSpatial {
		group = f.ioGroupMask()
	}
	return f.alloc.nextSet(f.alloc.open, fresh, group)
}

func (f *FTL) tryWrite(w *hostWrite) {
	// Allocate as many pages as space allows; a shortfall commits the
	// allocated prefix and stalls the remainder until blocks free up.
	f.targets = f.targets[:0]
	for range w.lpns {
		s, ok := f.hostSlot()
		if !ok {
			break
		}
		ps := f.planeAt(s.chip, s.plane)
		block, page, err := ps.allocate()
		if err != nil {
			// Recoverable shortfall (a fault retired the block between the
			// search and here): stall like any other.
			break
		}
		f.targets = append(f.targets, pendingTarget{s: s, block: block, page: page})
	}
	if n := len(f.targets); n < len(w.lpns) {
		// Not enough space now: commit the already-allocated targets as a
		// partial prefix and stall the remainder.
		f.stats.WriteStalls++
		if n > 0 {
			f.commitWrite(f.newWrite(w.lpns[:n], w.toks[:n], nil, nil), f.targets)
			w.lpns = w.lpns[:copy(w.lpns, w.lpns[n:])]
			w.toks = w.toks[:copy(w.toks, w.toks[n:])]
		}
		f.tel.Event("write-stall", f.eng.Now())
		if f.trc.Enabled() {
			w.stall = f.trc.BeginSpan("ftl", "write-stall", trace.KV{K: "pages", V: len(w.lpns)})
		}
		f.stalled = append(f.stalled, w)
		// A stalled write means allocation is out of space right now —
		// collection must run no matter where the threshold sits.
		if !f.gcActive && f.cfg.GCMode != GCNone {
			f.startGC(nil)
		}
		return
	}
	// Full allocation succeeded: any stall epochs end here. For a
	// write whose prefix committed earlier, program time overlapping
	// the stall is credited to the stall (the binding constraint).
	w.att.Mark(telemetry.PhaseStall, f.eng.Now())
	f.commitWrite(w, f.targets)
}

type pendingTarget struct {
	s     slot
	block int
	page  int
}

// commitWrite maps every LPN of w to its target and issues one fabric
// write per chip batch.
func (f *FTL) commitWrite(w *hostWrite, targets []pendingTarget) {
	w.locs, w.addrs = w.locs[:0], w.addrs[:0]
	for i, tgt := range targets {
		lpn := w.lpns[i]
		// Invalidate the previous version.
		if old := f.l2p[lpn]; old != unmapped {
			f.invalidatePhys(int64(old))
		}
		addr := flash.PPA{Plane: tgt.s.plane, Block: tgt.block, Page: tgt.page}
		phys := physIndex(f.geo, f.ways, tgt.s.chip, addr)
		if f.p2l[phys] != unmapped {
			panic(fmt.Sprintf("ftl: commitWrite double-maps phys %d (old lpn %d, new lpn %d) at %v/%v", phys, f.p2l[phys], lpn, tgt.s.chip, addr))
		}
		f.l2p[lpn] = int32(phys)
		f.p2l[phys] = int32(lpn)
		ps := f.planeAt(tgt.s.chip, tgt.s.plane)
		ps.blocks[tgt.block].validCount++
		ps.blocks[tgt.block].inflight++
		ps.blocks[tgt.block].lastWrite = int64(f.eng.Now())
		f.inflightWrites[lpn]++
		if f.sink != nil {
			f.sink.PageWritten(lpn, w.toks[i])
		}
		if f.mapu != nil {
			f.mapu.noteUpdate(lpn)
		}
		w.locs, w.addrs = append(w.locs, tgt.s.chip), append(w.addrs, addr)
	}
	w.batches = batchByChip(w.batches, f.geo.Planes, w.locs, w.addrs, w.toks, w.lpns)
	for len(w.ends) < len(w.batches) {
		e := &writeEnd{w: w, i: len(w.ends)}
		e.fire = e.complete
		w.ends = append(w.ends, e)
		w.ops = append(w.ops, nil)
	}
	w.remaining = len(w.batches)
	for bi := range w.batches {
		b := &w.batches[bi]
		ops := w.ops[bi][:0]
		if cap(ops) == 0 {
			ops = make([]flash.ProgramOp, 0, f.geo.Planes)
		}
		for i := range b.ppas {
			ops = append(ops, flash.ProgramOp{Addr: b.ppas[i], Token: b.toks[i]})
		}
		w.ops[bi] = ops
		f.fab.Write(b.id, ops, w.ends[bi].fire)
	}
}

// complete releases the batch's blocks; the write's last batch releases
// its LPNs, returns the record to the free list and then runs done.
func (e *writeEnd) complete() {
	w := e.w
	f := w.f
	b := &w.batches[e.i]
	for _, a := range b.ppas {
		f.planeAt(b.id, a.Plane).blocks[a.Block].inflight--
	}
	// Firmware reads the NAND status register after tPROG: a failed
	// program retires the block and remaps the write. The remap holds
	// its own in-flight reference, so reads of the remapped LPN keep
	// waiting even after this batch releases below.
	if f.faults != nil {
		f.handleProgramFaults(b)
	}
	w.remaining--
	if w.remaining > 0 {
		return
	}
	for _, lpn := range w.lpns {
		f.releaseInflight(lpn)
	}
	// Liveness backstop: if writes are parked with no collection running
	// (a zero-victim round finished while every Full block still had
	// programs in flight), this completion is the event that unblocks
	// victim selection — restart GC. Healthy runs never take this branch:
	// a stall always leaves gcActive set.
	if len(f.stalled) > 0 && !f.gcActive && f.cfg.GCMode != GCNone {
		f.startGC(nil)
	}
	done, host := w.done, w.host
	w.att, w.done, w.host, w.stall = nil, nil, false, trace.SpanID{}
	f.freeWrites = append(f.freeWrites, w)
	if host {
		f.outstanding--
	}
	if done != nil {
		done()
	}
}

// holdInflight adds an in-flight write reference for an LPN, keeping
// reads of it parked.
func (f *FTL) holdInflight(lpn int64) { f.inflightWrites[lpn]++ }

// releaseInflight drops one in-flight reference; the last release wakes
// reads that were waiting on the LPN.
func (f *FTL) releaseInflight(lpn int64) {
	f.inflightWrites[lpn]--
	if f.inflightWrites[lpn] < 0 {
		panic(fmt.Sprintf("ftl: negative inflight count for LPN %d", lpn))
	}
	if f.inflightWrites[lpn] == 0 {
		delete(f.inflightWrites, lpn)
		waiters := f.writeWaiters[lpn]
		delete(f.writeWaiters, lpn)
		for _, w := range waiters {
			w()
		}
	}
}

// handleProgramFaults draws the program-fail outcome for every page of a
// completed write batch. A failed page retires its block; if the page
// still backs its LPN the mapping is undone and the write reissued to a
// fresh block — the bad-block remap path. The stale token left in the
// failed page is harmless: the mapping no longer points there and the
// block never returns to service.
func (f *FTL) handleProgramFaults(b *chipBatch) {
	key := f.chipKey(b.id)
	for i, a := range b.ppas {
		if !f.faults.DrawFor(fault.ProgramFail, key) {
			continue
		}
		f.ras().ProgramFails++
		f.tel.Event("program-fail", f.eng.Now())
		f.retireBlock(b.id, a.Plane, a.Block)
		phys := physIndex(f.geo, f.ways, b.id, a)
		lpn := b.lpns[i]
		if int64(f.p2l[phys]) != lpn || int64(f.l2p[lpn]) != phys {
			// Superseded mid-flight by a host overwrite: the failed page
			// held no current data, retirement alone suffices.
			continue
		}
		f.ras().WriteRemaps++
		f.invalidatePhys(phys)
		f.l2p[lpn] = unmapped
		// Hold the in-flight reference across the reissue so a read of
		// this LPN cannot observe the unmapped window (or a stalled
		// reissue) and panic on an unmapped read.
		f.holdInflight(lpn)
		f.tryWrite(f.newWrite(b.lpns[i:i+1], b.toks[i:i+1], nil, func() { f.releaseInflight(lpn) }))
	}
}

// retireBlock permanently removes a block from service after a program
// or erase failure: it is closed if open, pulled from the free pool, and
// marked bad so no allocator ever hands it out again. Valid pages remain
// readable; GC migrates them off before the block reaches its terminal
// BlockRetired state.
func (f *FTL) retireBlock(id controller.ChipID, plane, block int) {
	ps := f.planeAt(id, plane)
	bi := &ps.blocks[block]
	if bi.bad {
		return
	}
	bi.bad = true
	if ps.active == block {
		ps.active = -1
		f.alloc.open.clear(ps.slot)
	}
	if ps.gcActive == block {
		ps.gcActive = -1
		f.alloc.gcOpen.clear(ps.slot)
	}
	ps.removeFree(block)
	// An open block closes as Full so GC can still select it and migrate
	// its remaining valid pages.
	if bi.state == BlockActive || bi.state == BlockFree {
		bi.state = BlockFull
	}
	if r := f.ras(); r != nil {
		r.RecordRetirement(f.chipKey(id))
	}
}

// invalidatePhys drops the valid count for a superseded physical page.
func (f *FTL) invalidatePhys(phys int64) {
	id, addr := physDecode(f.geo, f.ways, phys)
	ps := f.planeAt(id, addr.Plane)
	ps.blocks[addr.Block].validCount--
	if ps.blocks[addr.Block].validCount < 0 {
		panic("ftl: negative valid count")
	}
	f.p2l[phys] = unmapped
}

// retryStalled reissues writes that stalled on allocation, in the order
// they stalled. A write that stalls again re-queues its record on the
// other buffer. A nested call (a retry can start a GC round that retires
// a bad victim at once) takes the buffer as it then stands; the outer
// loop's buffer stays out of reach until that loop is done with it.
func (f *FTL) retryStalled() {
	if len(f.stalled) == 0 {
		return
	}
	pending := f.stalled
	f.stalled, f.stalledSpare = f.stalledSpare[:0], nil
	for i, w := range pending {
		pending[i] = nil
		f.trc.EndSpan(w.stall)
		f.tryWrite(w)
	}
	f.stalledSpare = pending[:0]
}

// CheckConsistency validates l2p/p2l agreement, valid-count accounting,
// the incremental free-block count, the allocator's slot bits and the
// host search; tests call it after workloads and GC churn.
func (f *FTL) CheckConsistency() error {
	free := 0
	for i := range f.planes {
		free += len(f.planes[i].free)
	}
	if free != f.alloc.freeBlocks {
		return fmt.Errorf("ftl: free-block count %d, free pools hold %d", f.alloc.freeBlocks, free)
	}
	if err := f.checkSlotBits(); err != nil {
		return err
	}
	validByBlock := make(map[int64]int32)
	for lpn, phys := range f.l2p {
		if phys == unmapped {
			continue
		}
		if f.p2l[phys] != int32(lpn) {
			return fmt.Errorf("ftl: l2p[%d]=%d but p2l=%d", lpn, phys, f.p2l[phys])
		}
		id, addr := physDecode(f.geo, f.ways, int64(phys))
		chipIdx := int64(id.Channel*f.ways+id.Way)*int64(f.geo.Planes) + int64(addr.Plane)
		validByBlock[chipIdx*int64(f.geo.BlocksPerPlane)+int64(addr.Block)]++
	}
	for pi := range f.planes {
		ps := &f.planes[pi]
		for b := range ps.blocks {
			want := validByBlock[int64(pi)*int64(f.geo.BlocksPerPlane)+int64(b)]
			if ps.blocks[b].validCount != want {
				return fmt.Errorf("ftl: plane %d block %d validCount=%d, mapped=%d", pi, b, ps.blocks[b].validCount, want)
			}
			if ps.blocks[b].bad {
				if ps.active == b || ps.gcActive == b {
					return fmt.Errorf("ftl: plane %d retired block %d is an open allocation target", pi, b)
				}
				for _, fb := range ps.free {
					if fb == b {
						return fmt.Errorf("ftl: plane %d retired block %d in free pool", pi, b)
					}
				}
				if ps.blocks[b].state == BlockFree {
					return fmt.Errorf("ftl: plane %d retired block %d marked free", pi, b)
				}
			}
		}
	}
	return nil
}

// checkSlotBits holds every slot bit and mask to the plane state or way
// it stands for, and the host search to a walk of hostWriteAllowed from
// the cursor.
func (f *FTL) checkSlotBits() error {
	a := f.alloc
	for i, s := range a.slots {
		ps := f.planeAt(s.chip, s.plane)
		if ps.slot != i {
			return fmt.Errorf("ftl: %v plane %d has slot index %d, want %d", s.chip, s.plane, ps.slot, i)
		}
		if a.open.has(i) != (ps.active >= 0) || a.gcOpen.has(i) != (ps.gcActive >= 0) || a.free.has(i) != (len(ps.free) > 0) {
			return fmt.Errorf("ftl: %v plane %d slot bits open=%v gcOpen=%v free=%v, plane has active=%d gcActive=%d %d free",
				s.chip, s.plane, a.open.has(i), a.gcOpen.has(i), a.free.has(i), ps.active, ps.gcActive, len(ps.free))
		}
		for w := range a.way {
			if a.way[w].has(i) != (s.chip.Way == w) {
				return fmt.Errorf("ftl: way %d mask disagrees at %v plane %d", w, s.chip, s.plane)
			}
		}
		gc := f.inGCGroup(s.chip.Way)
		if f.gcGroupMask().has(i) != gc || f.ioGroupMask().has(i) == gc {
			return fmt.Errorf("ftl: SpGC group masks disagree with inGCGroup at %v plane %d", s.chip, s.plane)
		}
	}
	cur := a.cursor
	got, ok := f.hostSlot()
	a.cursor = cur
	var want slot
	wantOK := false
	for k := range a.slots {
		if s := a.slots[(cur+k)%len(a.slots)]; f.hostWriteAllowed(s) {
			want, wantOK = s, true
			break
		}
	}
	if got != want || ok != wantOK {
		return fmt.Errorf("ftl: host search from slot %d found %v plane %d (%v), hostWriteAllowed first admits %v plane %d (%v)",
			cur, got.chip, got.plane, ok, want.chip, want.plane, wantOK)
	}
	return nil
}

// WearStats summarizes block erase counts across the device — the P/E
// cycle distribution whose uniformity the SpGC group swap protects
// (Sec VI-A: groups alternate "to uniformly increase the age of the
// flash memory").
type WearStats struct {
	MinErase  int
	MaxErase  int
	MeanErase float64
	// PerWay is the mean erase count per way-column, exposing any
	// systematic imbalance between the two SpGC groups.
	PerWay []float64
}

// Wear computes the device's current wear statistics from the chips' P/E
// counters.
func (f *FTL) Wear() WearStats {
	ws := WearStats{MinErase: int(^uint(0) >> 1)}
	perWay := make([]float64, f.ways)
	perWayBlocks := make([]int, f.ways)
	var total, blocks int
	f.fab.Grid().ForEach(func(id controller.ChipID, c *flash.Chip) {
		for plane := 0; plane < f.geo.Planes; plane++ {
			for b := 0; b < f.geo.BlocksPerPlane; b++ {
				e := c.EraseCount(plane, b)
				total += e
				blocks++
				perWay[id.Way] += float64(e)
				perWayBlocks[id.Way]++
				if e < ws.MinErase {
					ws.MinErase = e
				}
				if e > ws.MaxErase {
					ws.MaxErase = e
				}
			}
		}
	})
	if blocks > 0 {
		ws.MeanErase = float64(total) / float64(blocks)
	}
	ws.PerWay = perWay
	for w := range ws.PerWay {
		if perWayBlocks[w] > 0 {
			ws.PerWay[w] /= float64(perWayBlocks[w])
		}
	}
	if blocks == 0 {
		ws.MinErase = 0
	}
	return ws
}

// GroupWearGap returns the relative gap between the mean wear of the two
// way-halves: |lo - hi| / max(lo, hi), zero when perfectly level.
func (ws WearStats) GroupWearGap() float64 {
	n := len(ws.PerWay)
	if n < 2 {
		return 0
	}
	var lo, hi float64
	for w, v := range ws.PerWay {
		if w < n/2 {
			lo += v
		} else {
			hi += v
		}
	}
	max := lo
	if hi > max {
		max = hi
	}
	if max == 0 {
		return 0
	}
	diff := lo - hi
	if diff < 0 {
		diff = -diff
	}
	return diff / max
}
