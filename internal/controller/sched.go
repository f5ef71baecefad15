package controller

import (
	"fmt"
	"strings"

	"repro/internal/flash"
	"repro/internal/sim"
)

// SchedPolicy selects the controller's command scheduling policy — the
// Venice/Sprinkler-class alternatives to the paper's extra wires. FIFO
// is the historical behaviour: every transaction issues the moment the
// FTL hands it over and the per-resource queues do all the ordering.
type SchedPolicy int

// Scheduling policies.
const (
	// SchedFIFO issues transactions in arrival order with no deferral.
	// It is the unwrapped fabric: a device under FIFO has no scheduling
	// layer, and NewSchedFabric refuses it.
	SchedFIFO SchedPolicy = iota
	// SchedConflict is Venice-style conflict-free path allocation:
	// before a (potentially split) read or a GC copy issues, its full
	// h-channel/v-channel/chip path is reserved in a conflict table, and
	// transactions whose path intersects an active reservation defer
	// until the holder releases.
	SchedConflict
	// SchedOOO is Sprinkler-style out-of-order scheduling: transactions
	// enter an inflight window and the scheduler repeatedly picks the
	// pending command that maximizes distinct-die utilization instead of
	// honouring arrival order, subject to a starvation bound.
	SchedOOO
)

// String names the policy as the CLI flags spell it.
func (p SchedPolicy) String() string {
	switch p {
	case SchedFIFO:
		return "fifo"
	case SchedConflict:
		return "conflict"
	case SchedOOO:
		return "ooo"
	default:
		return fmt.Sprintf("sched(%d)", int(p))
	}
}

// SchedPolicyNames lists the parseable policy names in enum order.
func SchedPolicyNames() []string { return []string{"fifo", "conflict", "ooo"} }

// ParseSchedPolicy resolves a policy name; the empty string is the FIFO
// default so an unset config knob means "today's behaviour".
func ParseSchedPolicy(name string) (SchedPolicy, error) {
	switch strings.ToLower(name) {
	case "", "fifo":
		return SchedFIFO, nil
	case "conflict":
		return SchedConflict, nil
	case "ooo":
		return SchedOOO, nil
	default:
		return SchedFIFO, fmt.Errorf("controller: unknown scheduler policy %q (want fifo, conflict, or ooo)", name)
	}
}

// SegKind classifies one segment of a reserved data path.
type SegKind int

// Path segment kinds.
const (
	SegH    SegKind = iota // an h-channel row bus
	SegV                   // a v-channel column bus
	SegChip                // a flash chip (die)
)

// String names the kind.
func (k SegKind) String() string {
	switch k {
	case SegH:
		return "h"
	case SegV:
		return "v"
	case SegChip:
		return "chip"
	default:
		return fmt.Sprintf("seg(%d)", int(k))
	}
}

// PathSeg is one reservable segment of an interconnect path: an
// h-channel (Index = channel row), a v-channel (Index = v-channel
// number), or a chip (Index = channel*ways + way).
type PathSeg struct {
	Kind  SegKind
	Index int
}

// String renders "h3"/"v1"/"chip12"-style names.
func (s PathSeg) String() string { return fmt.Sprintf("%s%d", s.Kind, s.Index) }

// SchedChecker receives scheduling-layer notifications so the invariant
// checker can audit the reservation ledger and reorder-window legality.
// All hooks fire synchronously at the decision point.
type SchedChecker interface {
	// SchedReserved reports that op reserved the given path segments.
	SchedReserved(op uint64, segs []PathSeg)
	// SchedReleased reports that op released its path segments.
	SchedReleased(op uint64, segs []PathSeg)
	// SchedIssued reports that op issued to the inner fabric: rank is
	// its position among pending transactions in arrival order (0 = the
	// oldest), window the reorder-window size the pick had to respect
	// (0 = unwindowed policy), bypassed how many times the op was passed
	// over while pending, and bound the configured starvation bound.
	SchedIssued(op uint64, rank, window, bypassed, bound int)
	// SchedCompleted reports that op's completion callback ran;
	// inflight is the scheduler's remaining inflight count.
	SchedCompleted(op uint64, inflight int)
}

// Scheduling-layer tuning.
const (
	// DefaultSchedWindow is the out-of-order inflight window: at most
	// this many transactions run concurrently, and only the oldest
	// window pending transactions are eligible for reordering.
	DefaultSchedWindow = 16
	// DefaultReorderBound caps starvation: a pending transaction
	// bypassed this many times is issued next regardless of score
	// (out-of-order), and a deferred head bypassed this many times
	// freezes further admissions until it proceeds (conflict).
	DefaultReorderBound = 64
)

// opKind classifies a scheduled transaction.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opErase
	opCopy
)

func (k opKind) String() string {
	return [...]string{"read", "write", "erase", "copy"}[k]
}

// schedOp is one transaction held by the scheduling layer: its kind and
// arguments, the chips it targets and the path it reserves. Records are
// recycled through the fabric's pool and keep their reservation
// buffer, and fire, a method value bound once when the record is built,
// is the inner fabric's completion. So a steady stream of transactions
// allocates nothing.
type schedOp struct {
	f        *SchedFabric
	seq      uint64
	kind     opKind
	segs     []PathSeg // conflict-table reservation set; empty = pass through
	chip     [2]int    // target chip indices, for the die-utilization score
	nchips   int
	bypassed int

	id, dst  ChipID            // target chip; a copy's source and destination
	ppas     []flash.PPA       // a read's pages or an erase's blocks
	ops      []flash.ProgramOp // a write's programs
	from, to flash.PPA         // a copy's pages
	done     func()            // the caller's completion
	fire     func()            // bound op.finish
}

// chips returns the op's target chip indices.
func (op *schedOp) chips() []int { return op.chip[:op.nchips] }

// SchedFabric wraps an inner Fabric with a pluggable scheduling policy.
// It is transparent to the FTL — same four transactions, same completion
// semantics — and entirely synchronous: every scheduling decision runs
// inside the enqueue call or a completion callback, so it schedules no
// engine events of its own and inherits the wrapped fabric's determinism
// (including byte-identity at any -parallel setting).
type SchedFabric struct {
	inner Fabric
	pol   SchedPolicy
	ways  int

	// window and bound start at DefaultSchedWindow and
	// DefaultReorderBound; a window of 1 degenerates to FIFO issue order.
	window, bound int

	seq      uint64
	inflight int

	// conflict state: active reservations and the deferred queue in
	// arrival order.
	table  map[PathSeg]uint64
	deferq []*schedOp

	// out-of-order state: pending transactions in arrival order and the
	// per-chip inflight load the picker scores against.
	pending  []*schedOp
	chipLoad map[int]int

	check SchedChecker

	opPool sim.Pool[schedOp] // recycled transaction records

	// counters for reports and tests
	deferred   int64 // conflict: transactions that waited in the defer queue
	reordered  int64 // ooo: picks that bypassed at least one older transaction
	forced     int64 // ooo: starvation-bound forced picks
	maxPending int
}

// NewSchedFabric wraps inner with the given policy, SchedConflict or
// SchedOOO. SchedFIFO panics: FIFO is the unwrapped fabric.
func NewSchedFabric(inner Fabric, pol SchedPolicy) *SchedFabric {
	if inner == nil {
		panic("controller: scheduling layer needs an inner fabric")
	}
	if pol != SchedConflict && pol != SchedOOO {
		panic(fmt.Sprintf("controller: no scheduling layer for policy %v (FIFO is the unwrapped fabric)", pol))
	}
	return &SchedFabric{
		inner:    inner,
		pol:      pol,
		window:   DefaultSchedWindow,
		bound:    DefaultReorderBound,
		ways:     inner.Grid().Ways,
		table:    make(map[PathSeg]uint64),
		chipLoad: make(map[int]int),
	}
}

// Policy returns the active scheduling policy.
func (f *SchedFabric) Policy() SchedPolicy { return f.pol }

// Window returns the reorder-window size the checker should enforce: the
// inflight window for out-of-order, 0 (unwindowed) otherwise.
func (f *SchedFabric) Window() int {
	if f.pol == SchedOOO {
		return f.window
	}
	return 0
}

// ReorderBound returns the starvation bound.
func (f *SchedFabric) ReorderBound() int { return f.bound }

// SetChecker attaches a scheduling checker; nil (the default) detaches.
func (f *SchedFabric) SetChecker(c SchedChecker) { f.check = c }

// Counts returns the policy counters: conflict deferrals, out-of-order
// reorders, and starvation-bound forced picks.
func (f *SchedFabric) Counts() (deferred, reordered, forced int64) {
	return f.deferred, f.reordered, f.forced
}

// MaxPending returns the deepest pending/deferred backlog observed.
func (f *SchedFabric) MaxPending() int { return f.maxPending }

// Quiesced reports whether the scheduling layer holds nothing: no
// inflight transactions, no deferred or pending backlog, and an empty
// reservation table — the drain-time leak invariant.
func (f *SchedFabric) Quiesced() bool {
	return f.inflight == 0 && len(f.deferq) == 0 && len(f.pending) == 0 && len(f.table) == 0
}

// Reset implements Fabric for the scheduling layer's own state: an empty
// reservation table and backlog, zero counters, and no checker. It
// panics while it holds work. The inner fabric is reset by its owner.
func (f *SchedFabric) Reset() {
	if !f.Quiesced() {
		panic("controller: reset of a scheduling layer that still holds work")
	}
	*f = SchedFabric{
		inner: f.inner, pol: f.pol, ways: f.ways, window: DefaultSchedWindow, bound: DefaultReorderBound,
		table: f.table, deferq: f.deferq[:0], pending: f.pending[:0], chipLoad: f.chipLoad, opPool: f.opPool,
	}
}

// Name implements Fabric; the wrapper is invisible in reports.
func (f *SchedFabric) Name() string { return f.inner.Name() }

// Grid implements Fabric.
func (f *SchedFabric) Grid() *Grid { return f.inner.Grid() }

func (f *SchedFabric) chipIndex(id ChipID) int { return id.Channel*f.ways + id.Way }

// readPath appends to segs the segments a read may occupy: the row's
// h-channel on a channel fabric, plus the column's v-channel when it has
// v-channels, since the return path is then adaptive or split and the
// reservation conservatively covers both. Mesh chips reserve themselves.
func (f *SchedFabric) readPath(segs []PathSeg, id ChipID) []PathSeg {
	chip := PathSeg{SegChip, f.chipIndex(id)}
	in, ok := f.inner.(*OmnibusFabric)
	switch {
	case !ok:
		return append(segs, chip)
	case in.NumVChannels() > 0:
		return append(segs, PathSeg{SegH, id.Channel}, PathSeg{SegV, in.vIndex(id.Way)}, chip)
	default:
		return append(segs, PathSeg{SegH, id.Channel}, chip)
	}
}

// copyPath appends to segs, which must be empty, the segments a GC copy
// occupies on a channel fabric: the column's v-channel for a direct copy,
// the two rows' h-channels for a relayed one, plus both chips.
func (f *SchedFabric) copyPath(segs []PathSeg, src, dst ChipID) []PathSeg {
	if in, ok := f.inner.(*OmnibusFabric); ok {
		if in.sameV(src, dst) {
			segs = append(segs, PathSeg{SegV, in.vIndex(src.Way)})
		} else {
			segs = append(segs, PathSeg{SegH, src.Channel}, PathSeg{SegH, dst.Channel})
		}
	}
	return dedupeSegs(append(segs, PathSeg{SegChip, f.chipIndex(src)}, PathSeg{SegChip, f.chipIndex(dst)}))
}

// dedupeSegs removes duplicate segments (a same-row relay copy names one
// h-channel twice) so reserve/release stay exactly-once per segment.
func dedupeSegs(segs []PathSeg) []PathSeg {
	out := segs[:0]
	for _, s := range segs {
		dup := false
		for _, o := range out {
			if o == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

// newOp takes an op record from the pool and loads a transaction of
// kind on chip id with the caller's done: no reservation, and id as its
// one target chip.
func (f *SchedFabric) newOp(kind opKind, id ChipID, done func()) *schedOp {
	op, fresh := f.opPool.Get()
	if fresh {
		op.f = f
		op.fire = op.finish
	}
	op.kind, op.id, op.done = kind, id, done
	op.segs, op.chip[0], op.nchips, op.bypassed = op.segs[:0], f.chipIndex(id), 1, 0
	return op
}

// Read implements Fabric.
func (f *SchedFabric) Read(id ChipID, ppas []flash.PPA, done func()) {
	op := f.newOp(opRead, id, done)
	op.ppas, op.segs = ppas, f.readPath(op.segs, id)
	f.submit(op)
}

// Write implements Fabric. Writes are single-path on every fabric, so
// the conflict policy passes them through unreserved; the out-of-order
// window still sequences them against the die-utilization score.
func (f *SchedFabric) Write(id ChipID, ops []flash.ProgramOp, done func()) {
	op := f.newOp(opWrite, id, done)
	op.ops = ops
	f.submit(op)
}

// Erase implements Fabric; erases are one control packet and pass the
// conflict table unreserved.
func (f *SchedFabric) Erase(id ChipID, blocks []flash.PPA, done func()) {
	op := f.newOp(opErase, id, done)
	op.ppas = blocks
	f.submit(op)
}

// Copy implements Fabric.
func (f *SchedFabric) Copy(src ChipID, from flash.PPA, dst ChipID, to flash.PPA, done func()) {
	op := f.newOp(opCopy, src, done)
	op.dst, op.from, op.to = dst, from, to
	op.chip[1], op.nchips = f.chipIndex(dst), 2
	op.segs = f.copyPath(op.segs, src, dst)
	f.submit(op)
}

// submit routes one transaction through the active policy.
func (f *SchedFabric) submit(op *schedOp) {
	op.seq = f.seq
	f.seq++
	switch f.pol {
	case SchedConflict:
		if len(op.segs) > 0 && (f.frozenConflict() || !f.pathFree(op.segs)) {
			f.deferred++
			f.deferq = append(f.deferq, op)
			if n := len(f.deferq); n > f.maxPending {
				f.maxPending = n
			}
			return
		}
		// A fresh reservation jumping ahead of deferred work counts as a
		// bypass against everything already waiting, so the starvation
		// bound covers new arrivals too.
		if len(op.segs) > 0 {
			for _, d := range f.deferq {
				d.bypassed++
			}
		}
		f.issue(op, 0)
	case SchedOOO:
		f.pending = append(f.pending, op)
		if n := len(f.pending); n > f.maxPending {
			f.maxPending = n
		}
		f.drainOOO()
	}
}

// issue reserves the op's path (conflict policy), notifies the checker,
// bumps the load accounting, and hands the transaction to the inner
// fabric. rank is the op's arrival-order position among the transactions
// it was picked from.
func (f *SchedFabric) issue(op *schedOp, rank int) {
	if f.pol == SchedConflict && len(op.segs) > 0 {
		for _, s := range op.segs {
			f.table[s] = op.seq
		}
		if f.check != nil {
			f.check.SchedReserved(op.seq, op.segs)
		}
	}
	f.inflight++
	for _, c := range op.chips() {
		f.chipLoad[c]++
	}
	if f.check != nil {
		f.check.SchedIssued(op.seq, rank, f.Window(), op.bypassed, f.bound)
	}
	in := f.inner
	switch op.kind {
	case opRead:
		in.Read(op.id, op.ppas, op.fire)
	case opWrite:
		in.Write(op.id, op.ops, op.fire)
	case opErase:
		in.Erase(op.id, op.ppas, op.fire)
	case opCopy:
		in.Copy(op.id, op.from, op.dst, op.to, op.fire)
	}
}

// finish runs when the inner fabric completes op: the scheduler sees the
// completion first, then the record goes back to the pool and the
// caller's done runs.
func (op *schedOp) finish() {
	f, done := op.f, op.done
	f.complete(op)
	op.ppas, op.ops, op.done = nil, nil, nil
	f.opPool.Put(op)
	if done != nil {
		done()
	}
}

// complete runs when the inner fabric finishes an op: release the path,
// update load, notify the checker, and let the policy admit more work.
func (f *SchedFabric) complete(op *schedOp) {
	f.inflight--
	for _, c := range op.chips() {
		if f.chipLoad[c]--; f.chipLoad[c] == 0 {
			delete(f.chipLoad, c)
		}
	}
	if f.pol == SchedConflict && len(op.segs) > 0 {
		for _, s := range op.segs {
			delete(f.table, s)
		}
		if f.check != nil {
			f.check.SchedReleased(op.seq, op.segs)
		}
	}
	if f.check != nil {
		f.check.SchedCompleted(op.seq, f.inflight)
	}
	switch f.pol {
	case SchedConflict:
		f.drainConflict()
	case SchedOOO:
		f.drainOOO()
	}
}
