// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in integer picoseconds so that the fastest modelled
// resources (a 16-bit flash channel moving two bytes per nanosecond, or a
// 2-bit mesh link moving one byte every four nanoseconds) divide evenly.
// Events scheduled for the same instant fire in scheduling order, which
// makes every simulation in this repository reproducible bit-for-bit.
package sim

import (
	"fmt"
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
	at  Time
	seq int64
	fn  func()
}

// before reports whether a must fire before b: earlier timestamp first,
// scheduling order (seq) breaking ties. seq is unique, so the order is a
// total order and every run replays identically.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap of concrete event values ordered by
// before. It replaces container/heap: no heap.Interface, no interface{}
// boxing on push/pop, and the arity-4 layout halves the tree depth so
// sift-down touches fewer cache lines per operation. The backing array is
// kept (and only grown) across Run loops, so a drained engine re-fills
// its queue without reallocating.
type eventHeap []event

// push appends ev and sifts it up to its position.
func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

// popMin removes and returns the earliest event. The vacated tail slot is
// zeroed so the callback closure becomes collectable immediately.
func (h *eventHeap) popMin() event {
	s := *h
	min := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = event{}
	s = s[:last]
	*h = s

	// Sift the relocated element down: find the smallest of up to four
	// children, swap if it precedes the parent.
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		best := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if s[c].before(s[best]) {
				best = c
			}
		}
		if !s[best].before(s[i]) {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return min
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
type Engine struct {
	now    Time
	seq    int64
	events eventHeap
	fired  int64
	// counted is how much of fired has been published to totalFired.
	counted int64
	// highWater tracks the deepest the event queue has been since the
	// last full drain; recentHW keeps the marks of the last few drained
	// Runs so the backing array can shrink once a big-config run is
	// provably over, not on the first quiet window after it.
	highWater int
	recentHW  [hwRuns]int
	hwIdx     int
}

// hwRuns is how many drained Runs of queue high-water history inform the
// shrink decision; minShrinkCap is the capacity below which shrinking is
// never worth a reallocation.
const (
	hwRuns       = 4
	minShrinkCap = 1024
)

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// EventsFired returns the number of events executed so far.
func (e *Engine) EventsFired() int64 { return e.fired }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule runs fn after delay d. A negative delay panics: the model has a
// causality bug and silently clamping it would hide the error.
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at t=%v", d, e.now))
	}
	e.At(e.now+d, fn)
}

// At runs fn at absolute time t, which must not precede the current time.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule into the past: t=%v now=%v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
	if n := len(e.events); n > e.highWater {
		e.highWater = n
	}
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time {
	for len(e.events) > 0 {
		e.step()
	}
	e.flushFired()
	e.noteDrained()
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

// noteDrained records the queue's high-water mark for the Run that just
// drained and shrinks the heap's backing array once the capacity exceeds
// 4x the deepest queue any of the last hwRuns Runs needed. Big-config
// sweeps reuse one engine across many Runs; without this, a single
// deep-queue run pins its peak-size slice (and every event closure slot
// in it) for the engine's remaining lifetime.
func (e *Engine) noteDrained() {
	e.recentHW[e.hwIdx%hwRuns] = e.highWater
	e.hwIdx++
	need := 0
	for _, hw := range e.recentHW {
		if hw > need {
			need = hw
		}
	}
	if c := cap(e.events); c >= minShrinkCap && c > 4*need {
		e.events = make(eventHeap, 0, 2*need)
	}
	e.highWater = 0
}

// heapCap exposes the event queue's backing capacity to tests.
func (e *Engine) heapCap() int { return cap(e.events) }

// RunUntil executes every event with a timestamp <= deadline, including
// events those events schedule into the window, and returns the number of
// events fired. Events beyond the deadline remain queued. The clock
// contract: on return the clock is exactly max(now, deadline) — it
// advances to the deadline even if the last event fired earlier (or no
// event fired at all), and an event scheduled exactly at the deadline
// does fire. If the deadline precedes the current clock, nothing fires
// and the clock is unchanged. EventsFiredTotal publication rides the
// batching threshold (see EventsFiredTotal), so windowed drains do not
// publish per call.
func (e *Engine) RunUntil(deadline Time) int64 {
	var n int64
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.step()
		n++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

// RunFor advances the clock by d, executing everything due in the window.
func (e *Engine) RunFor(d Time) int64 { return e.RunUntil(e.now + d) }

// Step executes exactly one event if any is pending, reporting whether one
// fired. Fired events feed EventsFiredTotal through the same batching
// threshold as the run loops, so a caller single-stepping an engine (or
// draining it in tiny RunUntil slices) still surfaces progress.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	e.step()
	return true
}

func (e *Engine) step() {
	ev := e.events.popMin()
	if ev.at < e.now {
		panic("sim: event heap corrupted")
	}
	e.now = ev.at
	e.fired++
	if e.fired-e.counted >= firedFlushBatch {
		totalFired.Add(e.fired - e.counted)
		e.counted = e.fired
	}
	ev.fn()
}
