package ftl

import (
	"fmt"
	"sort"

	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
	"repro/internal/trace"
)

// maybeTriggerGC starts a collection round when free space is below the
// threshold and no round is running.
func (f *FTL) maybeTriggerGC() {
	if f.gcActive || f.cfg.GCMode == GCNone {
		return
	}
	if f.FreeBlockFraction() >= f.cfg.GCThreshold {
		return
	}
	f.startGC(nil)
}

// TriggerGC forces a collection round immediately (experiments use this to
// study interference); done fires when the round completes. It panics if a
// round is already active.
func (f *FTL) TriggerGC(done func()) {
	if f.gcActive {
		panic("ftl: TriggerGC during active GC")
	}
	if f.cfg.GCMode == GCNone {
		panic("ftl: TriggerGC with GC disabled")
	}
	f.startGC(done)
}

// victim identifies one block chosen for collection.
type victim struct {
	id    controller.ChipID
	plane int
	block int
}

// inGCGroup reports whether a way belongs to the current GC group under
// SpGC. Groups swap every round to level wear (Fig 12(c)).
func (f *FTL) inGCGroup(way int) bool {
	if f.gcGroupLo {
		return way < f.gcBoundary
	}
	return way >= f.ways-f.gcBoundary
}

// gcGroupMask returns the slots of the current SpGC GC group.
func (f *FTL) gcGroupMask() slotBits {
	if f.gcGroupLo {
		return f.gcLo
	}
	return f.gcHi
}

// ioGroupMask returns the slots of the current SpGC I/O group, the
// complement of gcGroupMask.
func (f *FTL) ioGroupMask() slotBits {
	if f.gcGroupLo {
		return f.ioLo
	}
	return f.ioHi
}

// gcParticipant reports whether a chip contributes victims this round.
func (f *FTL) gcParticipant(id controller.ChipID) bool {
	if f.cfg.GCMode != GCSpatial {
		return true
	}
	return f.inGCGroup(id.Way)
}

// victimCand is one block selectVictims may pick.
type victimCand struct {
	plane, block int
	valid        int32
	lastWrite    int64
}

// selectVictims picks up to perChip victim blocks on every participating
// chip using the greedy minimum-valid policy. Only full blocks with no
// in-flight writes qualify. The result is FTL scratch, valid until the
// next round selects.
func (f *FTL) selectVictims(perChip int) []victim {
	victims := f.victims[:0]
	f.fab.Grid().ForEach(func(id controller.ChipID, _ *flash.Chip) {
		if !f.gcParticipant(id) {
			return
		}
		cands := f.cands[:0]
		for plane := 0; plane < f.geo.Planes; plane++ {
			ps := f.planeAt(id, plane)
			for b := range ps.blocks {
				bi := &ps.blocks[b]
				if bi.state == BlockFull && bi.inflight == 0 && !bi.mapOwned {
					cands = append(cands, victimCand{plane, b, bi.validCount, bi.lastWrite})
				}
			}
		}
		f.cands = cands
		// Score candidates: greedy prefers the fewest valid pages;
		// cost-benefit maximizes (1-u)/(2u) * age. Lower score wins so
		// both policies share the selection loop; ties resolve by
		// (plane, block) scan order for determinism.
		now := float64(f.eng.Now())
		score := func(c victimCand) float64 {
			if f.cfg.Victim == VictimCostBenefit {
				u := float64(c.valid) / float64(f.geo.PagesPerBlock)
				if u >= 1 {
					return 0 // nothing reclaimable, maximal copy cost
				}
				age := now - float64(c.lastWrite) + 1
				// Maximize benefit/cost = (1-u)*age / 2u; lower score wins.
				return -(1 - u) * age / (2*u + 1e-9)
			}
			return float64(c.valid)
		}
		for k := 0; k < perChip && len(cands) > 0; k++ {
			best := 0
			bestScore := score(cands[0])
			for i := 1; i < len(cands); i++ {
				if sc := score(cands[i]); sc < bestScore {
					best, bestScore = i, sc
				}
			}
			c := cands[best]
			cands = append(cands[:best], cands[best+1:]...)
			victims = append(victims, victim{id: id, plane: c.plane, block: c.block})
			f.planeAt(id, c.plane).blocks[c.block].state = BlockErasing
		}
	})
	f.victims = victims
	return victims
}

// victimBlocksPerChip is the number of victim blocks selected per
// participating chip per GC round.
const victimBlocksPerChip = 1

// startGC runs one collection round: select victims, migrate their valid
// pages, erase them, return them to the free pools.
func (f *FTL) startGC(done func()) {
	f.gcActive = true
	f.stats.GCRounds++
	started := f.eng.Now()
	f.tel.GCStarted(started)
	if f.trc.Enabled() {
		f.gcSpan = f.trc.BeginSpan("gc", "gc-round",
			trace.KV{K: "round", V: f.stats.GCRounds},
			trace.KV{K: "mode", V: f.cfg.GCMode.String()})
	}

	perChip := victimBlocksPerChip
	if f.cfg.GCMode == GCSpatial {
		// Only a fraction of the chips participate; scale victims per chip
		// so the total matches the baseline (Sec VII-A).
		perChip = int(float64(perChip)/f.cfg.GCGroupFraction + 0.5)
	}
	freeAtStart := f.alloc.freeBlocks
	victims := f.capVictims(f.selectVictims(perChip))
	if len(victims) == 0 {
		f.finishGC(started, freeAtStart, false, done)
		return
	}
	if f.victimDone == nil {
		f.victimDone = f.victimCollected
	}
	f.round = gcRound{remaining: len(victims), started: started, freeAtStart: freeAtStart, done: done}
	for _, v := range victims {
		f.collectVictim(v, f.victimDone)
	}
}

// gcRound is the state of the collection round in flight.
type gcRound struct {
	remaining   int // victims still being collected
	started     sim.Time
	freeAtStart int
	done        func()
}

// victimCollected completes one victim of the round in flight; the last
// one clears the round, since finishGC may start the next, and finishes
// it.
func (f *FTL) victimCollected() {
	if f.round.remaining--; f.round.remaining > 0 {
		return
	}
	r := f.round
	f.round = gcRound{}
	f.finishGC(r.started, r.freeAtStart, true, r.done)
}

// capVictims trims a round's victim set so that the pages its copies will
// consume fit in half the currently free space. Without the cap, a round
// on a nearly full device could have every victim stalled waiting for a
// destination while no erase is pending to free one. A binding budget
// admits the fewest-valid victims first: spent in scan order, it could
// keep fully valid victims that free nothing, and at the compaction limit
// such rounds chain forever through the stalled-write retry. Dropped
// victims return to the Full state for later rounds.
func (f *FTL) capVictims(victims []victim) []victim {
	valid := func(v victim) int64 { return int64(f.planeAt(v.id, v.plane).blocks[v.block].validCount) }
	budget := int64(f.alloc.freeBlocks) * int64(f.geo.PagesPerBlock) / 2
	var total int64
	for _, v := range victims {
		total += valid(v)
	}
	if total <= budget {
		return victims
	}
	byValid := append([]victim(nil), victims...)
	sort.SliceStable(byValid, func(i, j int) bool { return valid(byValid[i]) < valid(byValid[j]) })
	dropped := 0
	for i, v := range byValid {
		if n := valid(v); n > budget && i > dropped {
			f.planeAt(v.id, v.plane).blocks[v.block].state = BlockFull
			dropped++
		} else {
			budget -= n
		}
	}
	kept := victims[:0]
	for _, v := range victims {
		if f.planeAt(v.id, v.plane).blocks[v.block].state != BlockFull {
			kept = append(kept, v)
		}
	}
	return kept
}

func (f *FTL) finishGC(started sim.Time, freeAtStart int, hadVictims bool, done func()) {
	f.gcActive = false
	f.tel.GCFinished(f.eng.Now())
	dur := f.eng.Now() - started
	f.stats.GCTotalTime += dur
	f.stats.GCLastTime = dur
	if f.trc.Enabled() {
		f.trc.EndSpan(f.gcSpan,
			trace.KV{K: "pages_copied", V: f.stats.GCPagesCopied},
			trace.KV{K: "blocks_erased", V: f.stats.GCBlocksErased})
		f.gcSpan = trace.SpanID{}
	}
	if f.cfg.GCMode == GCSpatial {
		f.gcGroupLo = !f.gcGroupLo
	}
	// A zero-victim round fires no events and changes no allocation state,
	// so retrying stalled writes would re-stall them, restart GC, and recurse
	// without bound (every Full block can have programs in flight on a tiny
	// device). Leave them parked: each victim erase already retries, and the
	// commitWrite completion hook restarts GC once in-flight programs land.
	if hadVictims {
		f.retryStalled()
	}
	if done != nil {
		done()
	}
	// Space may still be short under heavy write pressure. Re-check on a
	// fresh event — but only when this round achieved a net free-block
	// gain. Near the device's compaction limit, rounds that free exactly
	// as many blocks as their copies consume would otherwise chain GC
	// forever; the next host write re-triggers instead.
	if f.alloc.freeBlocks > freeAtStart {
		f.eng.Schedule(0, f.maybeGC)
	}
}

// victimRun collects one victim block: it migrates the block's valid
// pages one at a time, then erases it and runs done. Records are
// recycled through the FTL's pool and keep the capacity of their page
// snapshot. Their steps run one after another in one lane, so a round's
// page copies and erases allocate nothing.
type victimRun struct {
	f     *FTL
	v     victim
	pages []int // valid pages at selection, migrated in order
	i     int   // pages[i] is the page being migrated
	done  func()

	// The copy in flight.
	oldPhys, newPhys int64
	lpn              int64
	dst              controller.ChipID
	dstAddr          flash.PPA
	dstPS            *planeState

	blocks [1]flash.PPA // the erase target

	lane sim.Lane[victimStep] // bound r.run
}

// victimStep names a victim run's steps.
type victimStep uint8

const (
	vrCopy   victimStep = iota // migrate pages[i]
	vrCopied                   // pages[i]'s copy landed
	vrPoll                     // preemptive GC: poll for idle
	vrErase                    // erase the migrated victim
	vrErased                   // the erase completed
)

// collectVictim migrates every valid page off one victim block, then
// erases it.
func (f *FTL) collectVictim(v victim, done func()) {
	r, fresh := f.victimPool.Get()
	if fresh {
		r.f = f
		r.lane.Bind(r.run)
	}
	r.v, r.i, r.done = v, 0, done
	// Snapshot the valid pages now; pages invalidated by host overwrites
	// mid-collection are re-checked at copy time.
	r.pages = r.pages[:0]
	base := physIndex(f.geo, f.ways, v.id, flash.PPA{Plane: v.plane, Block: v.block, Page: 0})
	for p := 0; p < f.geo.PagesPerBlock; p++ {
		if f.p2l[base+int64(p)] != unmapped {
			r.pages = append(r.pages, p)
		}
	}
	r.advance()
}

func (r *victimRun) run() {
	switch r.lane.Step {
	case vrCopy:
		r.copyStep()
	case vrCopied:
		r.copiedStep()
	case vrPoll:
		r.pollStep()
	case vrErase:
		r.eraseStep()
	case vrErased:
		r.erasedStep()
	}
}

// advance migrates pages[i], or erases the victim once every page has
// moved.
func (r *victimRun) advance() {
	if r.i >= len(r.pages) {
		r.eraseStep()
		return
	}
	if r.f.cfg.GCMode == GCPreemptive {
		r.pollStep()
		return
	}
	r.copyStep()
}

// nextPage moves on once pages[i] is migrated or found stale.
func (r *victimRun) nextPage() {
	r.i++
	r.advance()
}

// pollStep implements the semi-preemptive policy: between page copies,
// GC waits while host I/O is outstanding, polling until the device goes
// idle — unless free space is critically low, in which case it stops
// yielding (GC cannot be postponed indefinitely). Writes stalled on
// allocation never count as I/O worth yielding to: they cannot progress
// until GC frees space, so waiting on them would deadlock the device
// with free space sitting just above the critical floor.
func (r *victimRun) pollStep() {
	f := r.f
	if f.outstanding == 0 || len(f.stalled) > 0 || f.FreeBlockFraction() < f.cfg.GCThreshold/4 {
		r.copyStep()
		return
	}
	f.eng.Schedule(10*sim.Microsecond, r.lane.Then(vrPoll))
}

// copyStep migrates pages[i] if it is still valid.
func (r *victimRun) copyStep() {
	f, v := r.f, r.v
	from := flash.PPA{Plane: v.plane, Block: v.block, Page: r.pages[r.i]}
	r.oldPhys = physIndex(f.geo, f.ways, v.id, from)
	r.lpn = int64(f.p2l[r.oldPhys])
	if r.lpn == unmapped {
		// Host overwrote it since selection; nothing to move.
		r.nextPage()
		return
	}
	dst, dstAddr, ok := f.allocGCDestination(v)
	if !ok {
		// Transient exhaustion: every free block is being consumed by
		// concurrent copies or host writes racing into the reserve. Other
		// victims' erases will free blocks; retry then.
		f.eng.Schedule(20*sim.Microsecond, r.lane.Then(vrCopy))
		return
	}
	r.dst, r.dstAddr = dst, dstAddr
	r.newPhys = physIndex(f.geo, f.ways, dst, dstAddr)
	r.dstPS = f.planeAt(dst, dstAddr.Plane)
	r.dstPS.blocks[dstAddr.Block].inflight++
	f.stats.GCPagesCopied++
	f.tel.GCCopied(f.eng.Now())
	f.fab.Copy(v.id, from, dst, dstAddr, r.lane.Then(vrCopied))
}

// copiedStep lands one page copy: the mapping moves to the destination
// unless the host rewrote the LPN mid-copy.
func (r *victimRun) copiedStep() {
	f, v := r.f, r.v
	r.dstPS.blocks[r.dstAddr.Block].inflight--
	if f.faults.DrawFor(fault.ProgramFail, f.chipKey(r.dst)) {
		// The commit program at the destination failed its status
		// check: retire the destination block and retry the copy to a
		// fresh one. The source mapping never moved, so the page is
		// still intact on the victim.
		ras := f.ras()
		ras.ProgramFails++
		ras.GCCopyRetries++
		f.retireBlock(r.dst, r.dstAddr.Plane, r.dstAddr.Block)
		r.copyStep()
		return
	}
	if lpn := r.lpn; int64(f.p2l[r.oldPhys]) == lpn && int64(f.l2p[lpn]) == r.oldPhys {
		// Still current: move the mapping.
		if f.p2l[r.newPhys] != unmapped {
			panic(fmt.Sprintf("ftl: GC copy double-maps phys %d (old lpn %d, new lpn %d)", r.newPhys, f.p2l[r.newPhys], lpn))
		}
		f.l2p[lpn] = int32(r.newPhys)
		f.p2l[r.newPhys] = int32(lpn)
		f.p2l[r.oldPhys] = unmapped
		f.planeAt(v.id, v.plane).blocks[v.block].validCount--
		r.dstPS.blocks[r.dstAddr.Block].validCount++
		if f.mapu != nil {
			f.mapu.noteUpdate(lpn)
		}
	}
	// Otherwise the host rewrote the LPN mid-copy; the copied page is
	// immediately garbage and stays invalid at the destination.
	r.nextPage()
}

// allocGCDestination picks the destination page for a GC copy. SpGC
// restricts destinations to the victim's own column (way) so copies move
// only over that column's v-channel (Sec VI-A); PaGC and preemptive GC
// allocate anywhere via the normal policy. If the same-column restriction
// cannot be satisfied, it widens to any GC-group chip.
func (f *FTL) allocGCDestination(v victim) (controller.ChipID, flash.PPA, bool) {
	pick := func(m slotBits) (controller.ChipID, flash.PPA, bool) {
		// Prefer planes with a GC destination block already open so copies
		// stream sequentially into few blocks; only then open fresh ones.
		s, found := f.alloc.nextSet(f.alloc.gcOpen, nil, m)
		if !found {
			s, found = f.alloc.nextSet(f.alloc.gcOpen, f.alloc.free, m)
		}
		if !found {
			return controller.ChipID{}, flash.PPA{}, false
		}
		ps := f.planeAt(s.chip, s.plane)
		block, page, err := ps.allocateGC()
		if err != nil {
			// Recoverable: a fault retired the last free block between the
			// search and the allocation. The caller retries once
			// pending erases free space.
			return controller.ChipID{}, flash.PPA{}, false
		}
		return s.chip, flash.PPA{Plane: s.plane, Block: block, Page: page}, true
	}
	if f.cfg.GCMode == GCSpatial {
		if id, addr, ok := pick(f.alloc.way[v.id.Way]); ok {
			return id, addr, true
		}
		if id, addr, ok := pick(f.gcGroupMask()); ok {
			return id, addr, true
		}
		// Last resort: anywhere — correctness over isolation when the GC
		// group itself has no space left.
	}
	return pick(nil)
}

// eraseStep erases a fully migrated victim and returns it to the free
// pool. The erase waits for host reads still pinning the block — reads
// that mapped a page before its copy relocated it and are queued behind
// channel contention.
func (r *victimRun) eraseStep() {
	f, v := r.f, r.v
	ps := f.planeAt(v.id, v.plane)
	if ps.blocks[v.block].validCount != 0 {
		// True invariant: every valid page was migrated before this step;
		// a nonzero count is an accounting bug, not a fault.
		panic(fmt.Sprintf("ftl: erasing block with %d valid pages", ps.blocks[v.block].validCount))
	}
	if ps.blocks[v.block].readRefs > 0 {
		f.eng.Schedule(20*sim.Microsecond, r.lane.Then(vrErase))
		return
	}
	if ps.blocks[v.block].bad {
		// A block retired by an earlier program failure: its valid pages
		// are now migrated, so it leaves service for good — no erase, no
		// return to the free pool.
		ps.blocks[v.block].state = BlockRetired
		f.retryStalled()
		r.finish()
		return
	}
	r.blocks[0] = flash.PPA{Plane: v.plane, Block: v.block}
	f.fab.Erase(v.id, r.blocks[:], r.lane.Then(vrErased))
}

// erasedStep returns an erased victim to the free pool, or retires it
// when the erase status failed.
func (r *victimRun) erasedStep() {
	f, v := r.f, r.v
	ps := f.planeAt(v.id, v.plane)
	if f.faults.DrawFor(fault.EraseFail, f.chipKey(v.id)) {
		// Erase status failed: the block retires instead of rejoining
		// the free pool.
		f.ras().EraseFails++
		f.tel.Event("erase-fail", f.eng.Now())
		f.retireBlock(v.id, v.plane, v.block)
		ps.blocks[v.block].state = BlockRetired
		f.retryStalled()
		r.finish()
		return
	}
	ps.blocks[v.block].state = BlockFree
	ps.pushFree(v.block)
	f.stats.GCBlocksErased++
	f.retryStalled()
	r.finish()
}

// finish returns the record to the pool, then runs done, which may
// finish the round and start the next.
func (r *victimRun) finish() {
	f, done := r.f, r.done
	r.done = nil
	f.victimPool.Put(r)
	done()
}
