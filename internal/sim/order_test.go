package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The engine-order oracle runs one byte script twice: on Engine with real
// Resources, and on refEngine, a naive queue that keeps every pending
// event in one slice sorted by (at, from, late, seq) written out field by
// field, with refResource mirroring Resource's event pattern on top of
// it. The two firing logs must agree entry for entry, which pins that the
// heap, its packed sort key and the AtEach streams fire in the
// single-queue order, and that a resource's holds run their hooks and
// releases where the reference says.

// queue is the scheduling surface a script drives.
type queue interface {
	Now() Time
	Schedule(d Time, fn func())
	At(t Time, fn func())
	AtFrom(t, from Time, fn func())
	AtPassive(t Time, fn func())
	AtEach(times []Time, fn func(i int))
	RunUntil(deadline Time) int64
	Step() bool
	Run() Time
	Pending() int
	EventsFired() int64
}

// holder is the resource surface a script drives.
type holder interface {
	Use(d Time, done func())
	UseGranted(label string, hold func() Time, done func())
	TotalBusy() Time
	TotalWait() Time
}

// refEngine is the reference queue: a slice kept sorted by refEvent's
// before.
type refEngine struct {
	now   Time
	seq   int64
	evs   []refEvent
	fired int64
}

// refEvent is one reference entry with its sort key unpacked: an
// ordinary event counts from the clock at its call, an AtFrom event from
// its from and late, and a passive entry is not counted when it fires.
type refEvent struct {
	at, from Time
	late     bool
	seq      int64
	passive  bool
	fn       func()
}

// before is the (at, from, late, seq) order.
func (a refEvent) before(b refEvent) bool {
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.from != b.from:
		return a.from < b.from
	case a.late != b.late:
		return b.late
	}
	return a.seq < b.seq
}

func (e *refEngine) Now() Time          { return e.now }
func (e *refEngine) Pending() int       { return len(e.evs) }
func (e *refEngine) EventsFired() int64 { return e.fired }

func (e *refEngine) Schedule(d Time, fn func()) { e.At(e.now+d, fn) }

func (e *refEngine) At(t Time, fn func()) { e.add(refEvent{at: t, from: e.now, fn: fn}) }
func (e *refEngine) AtFrom(t, from Time, fn func()) {
	e.add(refEvent{at: t, from: from, late: true, fn: fn})
}
func (e *refEngine) AtPassive(t Time, fn func()) {
	e.add(refEvent{at: t, from: e.now, passive: true, fn: fn})
}

func (e *refEngine) add(ev refEvent) {
	e.seq++
	ev.seq = e.seq
	k := sort.Search(len(e.evs), func(k int) bool { return ev.before(e.evs[k]) })
	e.evs = append(e.evs, refEvent{})
	copy(e.evs[k+1:], e.evs[k:])
	e.evs[k] = ev
}

func (e *refEngine) AtEach(times []Time, fn func(i int)) {
	for i, t := range times {
		e.At(t, func() { fn(i) })
	}
}

func (e *refEngine) step() {
	ev := e.evs[0]
	e.evs = e.evs[1:]
	e.now = ev.at
	if !ev.passive {
		e.fired++
	}
	ev.fn()
}

func (e *refEngine) Step() bool {
	if len(e.evs) == 0 {
		return false
	}
	e.step()
	return true
}

func (e *refEngine) Run() Time {
	for len(e.evs) > 0 {
		e.step()
	}
	return e.now
}

func (e *refEngine) RunUntil(deadline Time) int64 {
	start := e.fired
	for len(e.evs) > 0 && e.evs[0].at <= deadline {
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.fired - start
}

// refResource is Resource's event pattern on refEngine: a grant runs the
// hold's hook inline and schedules the release at the length it returns,
// the hold's one event, and the release grants the next FIFO waiter
// before running done.
type refResource struct {
	e       *refEngine
	busy    bool
	since   Time
	waiters []refReq
	// busyT and waitT are the held and queued totals.
	busyT, waitT Time
}

type refReq struct {
	at   Time
	hold func() Time
	done func()
}

func (r *refResource) TotalBusy() Time { return r.busyT }
func (r *refResource) TotalWait() Time { return r.waitT }

func (r *refResource) Use(d Time, done func()) {
	r.UseGranted("", func() Time { return d }, done)
}

func (r *refResource) UseGranted(_ string, hold func() Time, done func()) {
	q := refReq{at: r.e.now, hold: hold, done: done}
	if r.busy {
		r.waiters = append(r.waiters, q)
		return
	}
	r.grant(q)
}

func (r *refResource) grant(q refReq) {
	r.busy = true
	r.since = r.e.now
	r.waitT += r.e.now - q.at
	r.e.Schedule(q.hold(), func() {
		r.busyT += r.e.now - r.since
		r.busy = false
		if len(r.waiters) > 0 {
			next := r.waiters[0]
			r.waiters = r.waiters[1:]
			r.grant(next)
		}
		if q.done != nil {
			q.done()
		}
	})
}

// maxScript bounds the scripts the fuzzer tries. Longer ones add no
// interleaving a short one lacks, and they make the fuzzer's input
// minimization, which is quadratic in the input length, crowd out
// fuzzing in a short run.
const maxScript = 128

// orderRun executes a script against q and returns its log: every fired
// script event as id@time with the queue's Pending count, and the result
// of every top-level op. Ops (first byte mod 10, then argument bytes):
// 0 nothing, 1 Schedule(0), 2 Schedule(d), 3 At(now+d) or, when bit 3 of
// its argument is set, AtFrom(now+d, from) with from anywhere from now
// to now+d, 4 AtEach over up
// to five times with ties and zero offsets in any order, 5 Use(d),
// 6 UseGranted whose hook fires an event inline and returns d, and at
// top level only 7 RunUntil (the deadline may precede the clock), 8 Step,
// 9 Run. A fired event runs one nested op, so events chain; past the end
// of the script every byte reads as 0. Every created event costs at least
// one script byte, so every script ends.
func orderRun(q queue, res [2]holder, script []byte) string {
	var sb strings.Builder
	pos, ids := 0, 0
	next := func() int {
		if pos >= len(script) {
			return 0
		}
		pos++
		return int(script[pos-1])
	}
	var op func(nested bool)
	fire := func(id int) func() {
		return func() {
			fmt.Fprintf(&sb, "%d@%d/%d ", id, q.Now(), q.Pending())
			op(true)
		}
	}
	newEvent := func() func() {
		ids++
		return fire(ids)
	}
	op = func(nested bool) {
		code := next() % 10
		if nested && code > 6 {
			code = 0
		}
		switch code {
		case 1:
			q.Schedule(0, newEvent())
		case 2:
			q.Schedule(Time(next()%8), newEvent())
		case 3:
			b := next()
			d := b % 8
			if b&8 == 0 {
				q.At(q.Now()+Time(d), newEvent())
				break
			}
			q.AtFrom(q.Now()+Time(d), q.Now()+Time(b>>4%(d+1)), newEvent())
		case 4:
			times := make([]Time, next()%6)
			for i := range times {
				times[i] = q.Now() + Time(next()%4)
			}
			base := ids + 1
			ids += len(times)
			q.AtEach(times, func(i int) { fire(base + i)() })
		case 5:
			r := res[next()%2]
			r.Use(Time(next()%6), newEvent())
		case 6:
			r := res[next()%2]
			d := Time(next() % 5)
			grant, release := newEvent(), newEvent()
			r.UseGranted("x", func() Time {
				grant()
				return d
			}, release)
		case 7:
			deadline := q.Now() + Time(next()%10) - 2
			n := q.RunUntil(deadline)
			fmt.Fprintf(&sb, "| cut %d@%d/%d ", n, q.Now(), q.Pending())
		case 8:
			fmt.Fprintf(&sb, "| step %v@%d/%d ", q.Step(), q.Now(), q.Pending())
		case 9:
			fmt.Fprintf(&sb, "| run @%d ", q.Run())
		}
	}
	for pos < len(script) {
		op(false)
	}
	fmt.Fprintf(&sb, "| end @%d/%d fired %d", q.Run(), q.Pending(), q.EventsFired())
	return sb.String()
}

// checkEngineOrder runs script on Engine and on the reference queue and
// fails on the first difference.
func checkEngineOrder(t *testing.T, script []byte) {
	t.Helper()
	e := NewEngine()
	got := orderRun(e, [2]holder{NewResource(e, "a"), NewResource(e, "b")}, script)
	ref := &refEngine{}
	want := orderRun(ref, [2]holder{&refResource{e: ref}, &refResource{e: ref}}, script)
	if got != want {
		t.Fatalf("script %v: firing order diverges from the reference queue\n got: %s\nwant: %s", script, got, want)
	}
}

// passiveTee queues a passive entry beside every event its caller
// schedules, due at the same instant, and hides them from the caller:
// Pending leaves them out and Step runs on to the next counted event.
// log records each passive entry as it runs, with the instant it was due.
type passiveTee struct {
	queue
	n   int // passive entries pending
	log strings.Builder
}

func (p *passiveTee) note(t Time) {
	p.n++
	p.queue.AtPassive(t, func() {
		p.n--
		fmt.Fprintf(&p.log, "p@%d/%d ", p.Now(), t)
	})
}

func (p *passiveTee) Schedule(d Time, fn func()) { p.At(p.Now()+d, fn) }

func (p *passiveTee) At(t Time, fn func()) {
	p.note(t)
	p.queue.At(t, fn)
}

func (p *passiveTee) AtFrom(t, from Time, fn func()) {
	p.note(t)
	p.queue.AtFrom(t, from, fn)
}

func (p *passiveTee) Pending() int { return p.queue.Pending() - p.n }

func (p *passiveTee) Step() bool {
	for fired := p.EventsFired(); p.queue.Step(); {
		if p.EventsFired() != fired {
			return true
		}
	}
	return false
}

// checkPassiveOrder runs script on Engine with and without a passive
// entry beside every scheduled event: the counted events must fire in the
// same order at the same instants with the same fired counts, and the
// passive entries in the order the reference queue gives them.
func checkPassiveOrder(t *testing.T, script []byte) {
	t.Helper()
	e := NewEngine()
	want := orderRun(e, [2]holder{NewResource(e, "a"), NewResource(e, "b")}, script)
	e = NewEngine()
	tee := &passiveTee{queue: e}
	if got := orderRun(tee, [2]holder{NewResource(e, "a"), NewResource(e, "b")}, script); got != want {
		t.Fatalf("script %v: passive entries moved the counted events\n got: %s\nwant: %s", script, got, want)
	}
	ref := &refEngine{}
	refTee := &passiveTee{queue: ref}
	orderRun(refTee, [2]holder{&refResource{e: ref}, &refResource{e: ref}}, script)
	if got, want := tee.log.String(), refTee.log.String(); got != want {
		t.Fatalf("script %v: passive entries diverge from the reference queue\n got: %s\nwant: %s", script, got, want)
	}
}

// engineOrderCorpus is the seed corpus of FuzzEngineOrder: hand-written
// scripts for the same-instant and stream interleavings, then seeded
// random ones.
func engineOrderCorpus() [][]byte {
	corpus := [][]byte{
		{},
		// Zero-delay chain: every event schedules the next at its instant.
		{1, 1, 1, 1, 1, 1, 0},
		// Unsorted, tied AtEach with zero offsets, then run.
		{4, 5, 3, 0, 2, 0, 1, 9},
		// Empty AtEach, then a one-element one.
		{4, 0, 4, 1, 2, 9},
		// AtEach beside pending same-instant events: three zero-delay events,
		// then a stream over {now, now, now+1, now}.
		{2, 3, 1, 1, 1, 4, 4, 0, 0, 1, 0, 9},
		// AtEach called mid-instant: the first of two zero-delay events
		// opens a stream over {now, now+2, now} while the second waits.
		{1, 1, 9, 4, 3, 0, 2, 0, 0},
		// Contended holds and hooked holds on both resources, cut twice.
		{5, 0, 3, 1, 5, 0, 2, 2, 6, 0, 3, 2, 6, 1, 0, 5, 7, 5, 7, 1, 8, 8, 9},
		// A cut whose deadline precedes the clock, then single steps.
		{3, 6, 7, 8, 7, 0, 8, 8, 8, 8},
		// AtFrom ties at one instant: from 1, an At, a Schedule, from 2
		// (in the future), from now.
		{3, 26, 3, 2, 2, 2, 3, 42, 3, 10, 9},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		s := make([]byte, 8+rng.Intn(maxScript-8))
		rng.Read(s)
		corpus = append(corpus, s)
	}
	return corpus
}

// TestEngineOrderCorpus runs the oracle over the fuzz seed corpus, so
// every plain `go test` exercises it.
func TestEngineOrderCorpus(t *testing.T) {
	for _, s := range engineOrderCorpus() {
		checkEngineOrder(t, s)
		checkPassiveOrder(t, s)
	}
}

// FuzzEngineOrder checks random scripts against the reference queue.
func FuzzEngineOrder(f *testing.F) {
	for _, s := range engineOrderCorpus() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > maxScript {
			return
		}
		checkEngineOrder(t, script)
		checkPassiveOrder(t, script)
	})
}
