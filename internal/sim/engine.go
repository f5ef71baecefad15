// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in integer picoseconds so that the fastest modelled
// resources (a 16-bit flash channel moving two bytes per nanosecond, or a
// 2-bit mesh link moving one byte every four nanoseconds) divide evenly.
// Events scheduled for the same instant fire in scheduling order, which
// makes every simulation in this repository reproducible bit-for-bit.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
)

// Time is a simulation timestamp or duration in picoseconds.
type Time int64

// Common duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns the time as a floating-point nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns the time as a floating-point microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds returns the time as a floating-point millisecond count.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns the time as a floating-point second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, e.g. "3.2us".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.2fns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.2fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

type event struct {
	at   Time
	from Time  // the instant the event counts as scheduled
	ord  int64 // seq<<1 | passive, with lateBit set by AtFrom
	fn   func()
}

// An event's ord packs the rest of its sort key and its passive flag:
// lateBit marks an AtFrom event, seq fills the bits below it, and the
// low bit marks a passive entry. seq is unique, so the passive bit never
// decides an order.
const (
	lateBit    = int64(1) << 62
	passiveBit = int64(1)
)

// before reports whether a must fire before b: the order is (at, from,
// late, seq). An ordinary event counts as scheduled when it is (from is
// the clock at the call, late is 0), and from rises with seq, so among
// ordinary events this is (at, seq): earlier timestamp first, scheduling
// order breaking ties. An AtFrom event counts as scheduled at its from,
// after every ordinary event scheduled at that instant. seq is unique,
// so the order is a total order and every run replays identically.
func (a event) before(b event) bool {
	return a.at < b.at || a.at == b.at && (a.from < b.from || a.from == b.from && a.ord < b.ord)
}

// eventHeap is a 4-ary min-heap of concrete event values ordered by
// before. It replaces container/heap: no heap.Interface, no interface{}
// boxing on push/pop, and the arity-4 layout halves the tree depth so
// sift-down touches fewer cache lines per operation. It holds every
// scheduled event plus the head of each AtEach arrival stream. The
// backing array is kept across Run loops, so a drained engine re-fills
// its queue without reallocating.
type eventHeap []event

// push appends ev and sifts it up to its position: each parent that ev
// precedes moves down into the hole, and ev fills the last one.
func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
	*h = s
}

// popMin removes and returns the earliest event. The vacated tail slot is
// zeroed so the callback closure becomes collectable immediately.
func (h *eventHeap) popMin() event {
	s := *h
	top := s[0]
	last := len(s) - 1
	x := s[last]
	s[last] = event{}
	s = s[:last]
	*h = s

	// Sift the former tail down from the root: the smallest of up to
	// four children moves up into the hole while it precedes x, and x
	// fills the last hole.
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		best := first
		end := min(first+4, last)
		for c := first + 1; c < end; c++ {
			if s[c].before(s[best]) {
				best = c
			}
		}
		if !s[best].before(x) {
			break
		}
		s[i] = s[best]
		i = best
	}
	if last > 0 {
		s[i] = x
	}
	return top
}

// totalFired accumulates events executed across every engine in the
// process — the feed behind the runner package's -progress reporter.
// Engines publish in batches of firedFlushBatch events rather than per
// event (plus one unconditional flush when a full Run drains), so the
// runner's concurrent per-job engines cost one atomic add per ~8k events
// each, and the hot step loop stays contention-free while -progress reads
// the counter from another goroutine.
var totalFired atomic.Int64

// firedFlushBatch is the unpublished-event threshold at which an engine
// pushes its delta to totalFired. Large enough that the runner's
// concurrent engines don't contend on the atomic; small enough that
// -progress never lags a live engine by more than a blink.
const firedFlushBatch = 8192

// EventsFiredTotal returns the process-wide number of events executed
// across all engines. Updated every firedFlushBatch events and at every
// full Run drain, so it lags an engine mid-drain by less than one batch;
// it is a progress signal, not an exact census.
func EventsFiredTotal() int64 { return totalFired.Load() }

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all model code runs inside event callbacks. Distinct
// engines are independent: N goroutines may each drive their own engine
// concurrently (the runner's per-job engines) with no shared mutable
// state beyond the batched EventsFiredTotal counter.
//
// Pending events live in two places, both ordered by before:
//   - arrival streams from AtEach, each sorted by (at, seq), of which
//     only the head is queued; firing it queues its successor.
//   - events, the heap, for everything else, zero-delay events included.
//
// step fires the heap top, so the firing order is the single-queue
// (at, from, late, seq) order event for event.
type Engine struct {
	now    Time
	seq    int64
	events eventHeap
	// backlog counts stream arrivals not yet queued in events.
	backlog int
	fired   int64
	// counted is how much of fired has been published to totalFired.
	counted int64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// EventsFired returns the number of events executed so far. Passive
// entries (AtPassive) are not events and are not counted.
func (e *Engine) EventsFired() int64 { return e.fired }

// Pending returns the number of scheduled events that have not fired:
// heap entries, passive ones included, plus AtEach arrivals not yet
// queued.
func (e *Engine) Pending() int { return len(e.events) + e.backlog }

// Schedule runs fn after delay d. A negative delay panics: the model has a
// causality bug and silently clamping it would hide the error.
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at t=%v", d, e.now))
	}
	e.At(e.now+d, fn)
}

// At runs fn at absolute time t, which must not precede the current time.
func (e *Engine) At(t Time, fn func()) { e.push(t, e.now, 0, fn) }

// AtFrom runs fn at t, ordered as if it had been scheduled at from after
// every ordinary event scheduled at that instant: among the events due
// at t it fires after every ordinary event scheduled at or before from
// and before every event scheduled later, and AtFrom events with equal t
// and from fire in call order. from may lie in the future but not after
// t. It is how a model that knows a completion when it is requested
// schedules it once, at the request, and still fires it about where an
// event scheduled at from, the grant it stands for, would have fired.
func (e *Engine) AtFrom(t, from Time, fn func()) {
	if from > t {
		panic(fmt.Sprintf("sim: event at t=%v counted from later instant %v", t, from))
	}
	e.push(t, from, lateBit, fn)
}

// AtPassive queues fn at t as a passive entry: it fires in the order At
// would give it but is not an event, so EventsFired does not count it.
// It is for observer notifications a model computes ahead; fn must only
// notify, never touch model state or schedule an ordinary event. It
// takes a seq like any event, which shifts every later seq by one and
// so leaves the order of the other events unchanged.
func (e *Engine) AtPassive(t Time, fn func()) { e.push(t, e.now, passiveBit, fn) }

// push queues fn at t with the next seq and the given flag bits.
func (e *Engine) push(t, from Time, flags int64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule into the past: t=%v now=%v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e.seq++
	e.events.push(event{at: t, from: from, ord: e.seq<<1 | flags, fn: fn})
}

// AtEach runs fn(i) at times[i] for every i. The order and the seq
// numbers are exactly those of a loop calling At(times[i], ...) in index
// order: the call reserves len(times) seq numbers, and ties fire in
// index order. times is copied, so the caller may reuse it. Only the
// earliest pending arrival is queued at any moment; firing it queues the
// next, so a long open-loop trace costs one queued event, not one per
// arrival. A time before the current clock or a nil fn panics, as At
// does, before anything is scheduled.
func (e *Engine) AtEach(times []Time, fn func(i int)) {
	if fn == nil {
		panic("sim: nil event function")
	}
	for _, t := range times {
		if t < e.now {
			panic(fmt.Sprintf("sim: schedule into the past: t=%v now=%v", t, e.now))
		}
	}
	if len(times) == 0 {
		return
	}
	s := &arrivals{eng: e, from: e.now, base: e.seq + 1, fn: fn, items: make([]arrival, len(times))}
	e.seq += int64(len(times))
	for i, t := range times {
		s.items[i] = arrival{at: t, i: i}
	}
	if !slices.IsSorted(times) {
		slices.SortStableFunc(s.items, func(a, b arrival) int { return cmp.Compare(a.at, b.at) })
	}
	s.fire = s.next
	e.backlog += len(times) - 1
	s.queue()
}

// arrival is one AtEach entry: its time and caller index.
type arrival struct {
	at Time
	i  int
}

// arrivals is one AtEach stream: items sorted by (at, i), of which
// items[pos] is the one queued in the heap.
type arrivals struct {
	eng   *Engine
	items []arrival
	pos   int
	from  Time  // the instant of the AtEach call
	base  int64 // seq of index 0
	fn    func(int)
	fire  func() // bound s.next, shared by every queued arrival
}

// queue pushes items[pos] with the seq reserved for its index.
func (s *arrivals) queue() {
	a := s.items[s.pos]
	s.eng.events.push(event{at: a.at, from: s.from, ord: (s.base + int64(a.i)) << 1, fn: s.fire})
}

// next fires the queued arrival after queueing its successor, so the
// heap holds the stream's head whatever fn schedules.
func (s *arrivals) next() {
	i := s.items[s.pos].i
	s.pos++
	if s.pos < len(s.items) {
		s.eng.backlog--
		s.queue()
	}
	s.fn(i)
}

// queued reports whether an event is waiting in the heap. Unqueued
// stream arrivals always have their predecessor queued.
func (e *Engine) queued() bool { return len(e.events) > 0 }

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time {
	for e.queued() {
		e.step()
	}
	e.flushFired()
	return e.now
}

// flushFired publishes any events fired since the last flush to the
// process-wide EventsFiredTotal counter, regardless of the batching
// threshold. Run calls it at every full drain so the census is exact once
// an engine drains.
func (e *Engine) flushFired() {
	if d := e.fired - e.counted; d > 0 {
		totalFired.Add(d)
		e.counted = e.fired
	}
}

// Reset returns a drained engine to its state at NewEngine: the clock,
// the sequence counter and the fired count go back to zero, and the
// queue keeps its backing array. The fired count is published to
// EventsFiredTotal first, so the process-wide census stays exact. An
// engine with events pending panics: resetting mid-run would drop them.
func (e *Engine) Reset() {
	if n := e.Pending(); n != 0 {
		panic(fmt.Sprintf("sim: reset of an engine with %d events pending", n))
	}
	e.flushFired()
	*e = Engine{events: e.events[:0]}
}

// RunUntil executes every event with a timestamp <= deadline, including
// events those events schedule into the window, and returns the number
// of events fired (passive entries run but are not counted). Events
// beyond the deadline remain queued. The clock contract: on return the
// clock is exactly max(now, deadline) — it advances to the deadline
// even if the last event fired earlier (or no event fired at all), and
// an event scheduled exactly at the deadline does fire. If the deadline
// precedes the current clock, nothing fires and the clock is unchanged.
// EventsFiredTotal publication rides the batching threshold (see
// EventsFiredTotal), so windowed drains do not publish per call.
func (e *Engine) RunUntil(deadline Time) int64 {
	start := e.fired
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.fired - start
}

// RunFor advances the clock by d, executing everything due in the window.
func (e *Engine) RunFor(d Time) int64 { return e.RunUntil(e.now + d) }

// Step executes exactly one heap entry, an event or a passive entry, if
// any is pending, reporting whether one ran. Fired events feed
// EventsFiredTotal through the same batching threshold as the run
// loops, so a caller single-stepping an engine (or draining it in tiny
// RunUntil slices) still surfaces progress.
func (e *Engine) Step() bool {
	if !e.queued() {
		return false
	}
	e.step()
	return true
}

// step fires the heap top, counting it unless it is passive.
func (e *Engine) step() {
	ev := e.events.popMin()
	if ev.at < e.now {
		panic("sim: event heap corrupted")
	}
	e.now = ev.at
	if ev.ord&passiveBit == 0 {
		e.fired++
		if e.fired-e.counted >= firedFlushBatch {
			totalFired.Add(e.fired - e.counted)
			e.counted = e.fired
		}
	}
	ev.fn()
}
