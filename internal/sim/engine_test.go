package sim

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Nanosecond != 1000 {
		t.Fatalf("Nanosecond = %d, want 1000", Nanosecond)
	}
	if Microsecond != 1000*Nanosecond || Millisecond != 1000*Microsecond || Second != 1000*Millisecond {
		t.Fatal("unit ladder broken")
	}
	if got := (3 * Microsecond).Microseconds(); got != 3.0 {
		t.Fatalf("Microseconds = %v, want 3", got)
	}
	if got := (1500 * Nanosecond).Microseconds(); got != 1.5 {
		t.Fatalf("Microseconds = %v, want 1.5", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Picosecond, "1.50ns"},
		{3 * Microsecond, "3.00us"},
		{50 * Microsecond, "50.00us"},
		{Millisecond, "1.00ms"},
		{2 * Second, "2.000s"},
		{-3 * Microsecond, "-3.00us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("final time = %v, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: order[%d]=%d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.Schedule(5, func() { hits = append(hits, e.Now()) })
		e.Schedule(0, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	want := []Time{10, 10, 15}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hits = %v, want %v", hits, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	n := e.RunUntil(25)
	if n != 2 {
		t.Fatalf("fired %d events, want 2", n)
	}
	if e.Now() != 25 {
		t.Fatalf("now = %v, want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Now() != 40 || len(fired) != 4 {
		t.Fatalf("after Run: now=%v fired=%v", e.Now(), fired)
	}
}

// TestEngineRunUntilClockAtDeadline pins the deadline/clock contract:
// an event exactly at the deadline fires, the clock lands exactly on the
// deadline whether or not any event reached it, and a deadline in the
// past fires nothing and leaves the clock alone.
func TestEngineRunUntilClockAtDeadline(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{10, 25, 40} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	// Event exactly at the deadline fires and the clock stops at it.
	if n := e.RunUntil(25); n != 2 {
		t.Fatalf("RunUntil(25) fired %d, want 2 (deadline event included)", n)
	}
	if e.Now() != 25 {
		t.Fatalf("now = %v, want exactly 25", e.Now())
	}
	// Deadline with no events in the window: clock still advances to it.
	if n := e.RunUntil(30); n != 0 {
		t.Fatalf("RunUntil(30) fired %d, want 0", n)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v, want 30 (clock advances to idle deadline)", e.Now())
	}
	// Deadline in the past: nothing fires, clock unchanged.
	if n := e.RunUntil(20); n != 0 {
		t.Fatalf("RunUntil(20) fired %d, want 0", n)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v, want 30 (past deadline must not rewind)", e.Now())
	}
	e.Run()
	if len(fired) != 3 || e.Now() != 40 {
		t.Fatalf("after Run: now=%v fired=%v", e.Now(), fired)
	}
}

func TestEngineRunFor(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(10, func() { count++ })
	e.Schedule(30, func() { count++ })
	e.RunFor(20)
	if count != 1 || e.Now() != 20 {
		t.Fatalf("count=%d now=%v, want 1, 20", count, e.Now())
	}
	e.RunFor(20)
	if count != 2 || e.Now() != 40 {
		t.Fatalf("count=%d now=%v, want 2, 40", count, e.Now())
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() { count++ })
	e.Schedule(2, func() { count++ })
	if !e.Step() || count != 1 {
		t.Fatal("first step did not fire one event")
	}
	if !e.Step() || count != 2 {
		t.Fatal("second step did not fire one event")
	}
	if e.Step() {
		t.Fatal("step on empty queue reported an event")
	}
	if e.EventsFired() != 2 {
		t.Fatalf("EventsFired = %d, want 2", e.EventsFired())
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestEnginePastSchedulePanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("past schedule did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestEngineNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil event did not panic")
		}
	}()
	NewEngine().Schedule(1, nil)
}

func TestEngineAtEachPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("AtEach into the past did not panic")
		}
		if e.Pending() != 0 {
			t.Fatalf("rejected AtEach left %d events pending", e.Pending())
		}
	}()
	e.AtEach([]Time{20, 5, 30}, func(int) {})
}

func TestEngineAtEachNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AtEach with a nil fn did not panic")
		}
	}()
	NewEngine().AtEach(nil, nil)
}

// TestEngineCorruptedHeapPanics: an event queued behind the clock means
// the queue's order is broken; step refuses to rewind time.
func TestEngineCorruptedHeapPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	e.events.push(event{at: 5, ord: (e.seq + 1) << 1, fn: func() {}})
	defer func() {
		if r := recover(); r != "sim: event heap corrupted" {
			t.Fatalf("recovered %v, want the corrupted-heap panic", r)
		}
	}()
	e.Step()
}

// TestEngineAtEachOrder: arrivals fire by time, ties in index order, and
// interleave with At events by the seq numbers a loop of At calls would
// have taken. The caller's slice is copied.
func TestEngineAtEachOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	rec := func(s string) { order = append(order, fmt.Sprintf("%s@%d", s, int64(e.Now()))) }
	e.At(3, func() { rec("a") })
	times := []Time{5, 3, 0, 3, 0}
	e.AtEach(times, func(i int) { rec(fmt.Sprint(i)) })
	times[0] = 1
	e.At(3, func() { rec("b") })
	e.Schedule(0, func() { rec("c") })
	e.Run()
	want := "[2@0 4@0 c@0 a@3 1@3 3@3 b@3 0@5]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

// TestEnginePendingCountsEveryQueue: Pending counts heap entries and
// stream arrivals not yet queued, and falls by one per fired event, so a
// drain check reads 0 only when nothing is scheduled.
func TestEnginePendingCountsEveryQueue(t *testing.T) {
	e := NewEngine()
	e.Schedule(0, func() {})
	e.Schedule(0, func() {})
	e.Schedule(7, func() {})
	e.AtEach([]Time{4, 1, 9, 1}, func(int) {})
	e.AtEach(nil, func(int) {})
	if got := e.Pending(); got != 7 {
		t.Fatalf("Pending = %d, want 7", got)
	}
	for want := 6; e.Step(); want-- {
		if got := e.Pending(); got != want {
			t.Fatalf("Pending = %d after a step, want %d", got, want)
		}
	}
	if e.Pending() != 0 || e.EventsFired() != 7 {
		t.Fatalf("drained engine: Pending %d, fired %d", e.Pending(), e.EventsFired())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestEngineOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		var max Time
		var fired []Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(delays) > 0 && e.Now() != max {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEventsFiredTotal: engines publish their fired-event delta to the
// process-wide counter in firedFlushBatch batches plus one unconditional
// flush at every full Run drain. Partial drains (RunUntil, Step) below
// the batch size publish nothing — that is what keeps the runner's
// concurrent engines off the shared atomic — and a re-drained engine
// publishes nothing twice.
func TestEventsFiredTotal(t *testing.T) {
	before := EventsFiredTotal()
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i)*Microsecond, func() {})
	}
	e.Run()
	if got := EventsFiredTotal() - before; got != 5 {
		t.Fatalf("total advanced by %d after Run, want 5", got)
	}
	e.Run() // drained: no delta
	if got := EventsFiredTotal() - before; got != 5 {
		t.Fatalf("re-running a drained engine changed the total to +%d", got)
	}
	e.Schedule(Microsecond, func() {})
	e.Schedule(2*Microsecond, func() {})
	e.RunUntil(e.Now() + Microsecond)
	if got := EventsFiredTotal() - before; got != 5 {
		t.Fatalf("sub-batch RunUntil published early: total advanced by %d, want 5", got)
	}
	e.Step()
	if got := EventsFiredTotal() - before; got != 5 {
		t.Fatalf("sub-batch Step published early: total advanced by %d, want 5", got)
	}
	e.Run()
	if got := EventsFiredTotal() - before; got != 7 {
		t.Fatalf("total advanced by %d after final drain, want 7", got)
	}
}

// TestEventsFiredTotalBatchThreshold: once an engine accumulates
// firedFlushBatch unpublished events, the very next event publishes the
// batch even though no Run has drained — the fix for windowed drives
// (and single-stepping) starving the -progress feed.
func TestEventsFiredTotalBatchThreshold(t *testing.T) {
	before := EventsFiredTotal()
	e := NewEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < firedFlushBatch+10 {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(1, tick)
	// Drive entirely through RunUntil windows, never a full Run.
	for e.Pending() > 0 && e.Now() < Time(firedFlushBatch) {
		e.RunUntil(e.Now() + 100)
	}
	if got := EventsFiredTotal() - before; got < firedFlushBatch {
		t.Fatalf("windowed drive published %d events, want >= %d (batch threshold)", got, firedFlushBatch)
	}
	e.Run()
	if got := EventsFiredTotal() - before; got != int64(n) {
		t.Fatalf("final drain published %d, want %d", got, n)
	}
}

// TestEventsFiredTotalConcurrentEngines: N goroutine-local engines drain
// concurrently — the shape of the runner's per-job engines — and the
// shared counter must end exactly at the sum, with a concurrent reader
// racing the batched writers. Run under -race in CI.
func TestEventsFiredTotalConcurrentEngines(t *testing.T) {
	const (
		goroutines = 8
		perEngine  = 3 * firedFlushBatch / 2 // crosses the batch threshold mid-run
	)
	before := EventsFiredTotal()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if EventsFiredTotal() < before {
					panic("EventsFiredTotal went backwards")
				}
			}
		}
	}()
	var engines sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		engines.Add(1)
		go func() {
			defer engines.Done()
			e := NewEngine()
			n := 0
			var tick func()
			tick = func() {
				n++
				if n < perEngine {
					e.Schedule(Nanosecond, tick)
				}
			}
			e.Schedule(Nanosecond, tick)
			e.Run()
		}()
	}
	engines.Wait()
	close(stop)
	wg.Wait()
	if got := EventsFiredTotal() - before; got != goroutines*perEngine {
		t.Fatalf("concurrent engines published %d events, want %d", got, goroutines*perEngine)
	}
}
