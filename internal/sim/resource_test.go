package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.Use(10, func() { order = append(order, i) })
	}
	e.Run()
	if e.Now() != 50 {
		t.Fatalf("now = %v, want 50 (serialized holds)", e.Now())
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: order=%v", order)
		}
	}
	if r.TotalBusy() != 50 {
		t.Fatalf("TotalBusy = %v, want 50", r.TotalBusy())
	}
	if r.totalGrants != 5 {
		t.Fatalf("%d grants, want 5", r.totalGrants)
	}
}

// TestTimedHoldIsOneEvent pins that a Use hold costs one event, whether
// it is granted at once or queued: n holds on n idle resources and n holds
// contending for one resource each fire exactly n events, and every done
// runs at its hold's end.
func TestTimedHoldIsOneEvent(t *testing.T) {
	const n = 8
	for _, contended := range []bool{false, true} {
		e := NewEngine()
		shared := NewResource(e, "shared")
		var ends []Time
		for i := 0; i < n; i++ {
			r := shared
			if !contended {
				r = NewResource(e, "idle")
			}
			r.Use(10, func() { ends = append(ends, e.Now()) })
		}
		e.Run()
		if e.EventsFired() != n {
			t.Errorf("contended=%v: %d holds fired %d events, want %d", contended, n, e.EventsFired(), n)
		}
		for i, at := range ends {
			want := Time(10)
			if contended {
				want = Time(10 * (i + 1))
			}
			if at != want {
				t.Fatalf("contended=%v: hold %d ended at %v, want %v", contended, i, at, want)
			}
		}
		if len(ends) != n {
			t.Fatalf("contended=%v: %d of %d holds completed", contended, len(ends), n)
		}
	}
}

// TestResourceUseGranted serializes two holds whose lengths their hooks
// set at the grant: the second is granted when the first is released.
func TestResourceUseGranted(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "die")
	var got []string
	r.UseGranted("read", func() Time {
		got = append(got, "first")
		return 100
	}, nil)
	r.UseGranted("read", func() Time {
		got = append(got, "second")
		return 0
	}, func() { got = append(got, "second-done") })
	e.Run()
	if len(got) != 3 || got[0] != "first" || got[1] != "second" || got[2] != "second-done" {
		t.Fatalf("got %v", got)
	}
	if e.Now() != 100 || r.TotalBusy() != 100 || e.EventsFired() != 2 {
		t.Fatalf("now %v, busy %v, %d events; want 100, 100, 2", e.Now(), r.TotalBusy(), e.EventsFired())
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x")
	defer func() {
		if recover() == nil {
			t.Fatal("release of idle resource did not panic")
		}
	}()
	r.release()
}

// TestResourceHookRunsAtGrant pins where a UseGranted hook runs: inside
// the call on an idle resource, and on a queued hold inside the event
// that releases the previous holder, before that holder's done. Either
// way it runs at the grant instant with the resource already held, and
// its duration starts there.
func TestResourceHookRunsAtGrant(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x")
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%s@%d/%v", s, e.Now(), r.Busy())) }
	e.Schedule(5, func() {
		note("call1")
		r.UseGranted("a", func() Time { note("hook1"); return 10 }, func() { note("done1") })
		note("queue2")
		r.UseGranted("b", func() Time { note("hook2"); return 3 }, func() { note("done2") })
		note("ret")
	})
	e.Run()
	want := "call1@5/false hook1@5/true queue2@5/true ret@5/true hook2@15/true done1@15/true done2@18/false"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("hook order\n got: %s\nwant: %s", got, want)
	}
	if e.EventsFired() != 3 {
		t.Fatalf("%d events, want 3: the schedule and one per hold", e.EventsFired())
	}
}

// TestResourceNegativeHookPanics: a hook that returns a negative length
// is a model bug, reported with the resource's name.
func TestResourceNegativeHookPanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "die7")
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "negative hold duration") || !strings.Contains(msg, "die7") {
			t.Fatalf("panic %q, want a negative-duration panic naming die7", msg)
		}
	}()
	r.UseGranted("read", func() Time { return -1 }, nil)
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ch")
	r.Use(30, nil)
	e.Run()
	e.RunUntil(100)
	if got := r.Utilization(); got != 0.3 {
		t.Fatalf("Utilization = %v, want 0.3", got)
	}
}

// Property: with random hold durations the total busy time equals the sum of
// holds and the final clock equals that sum (single FIFO server).
func TestResourceSerializationProperty(t *testing.T) {
	prop := func(holds []uint8) bool {
		e := NewEngine()
		r := NewResource(e, "p")
		var sum Time
		for _, h := range holds {
			d := Time(h)
			sum += d
			r.Use(d, nil)
		}
		e.Run()
		return r.TotalBusy() == sum && e.Now() == sum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestResourceDeepQueue drives a queue hundreds deep whose grants append
// more waiters, so popped slots, a full slice and the slide to the front
// all occur. Every third hold is a UseGranted hold. Grants stay FIFO
// across both kinds, each hook runs at its own grant, QueueLen counts
// exactly the waiters not yet granted, no slot outside the live window
// keeps a request, and the slide keeps the backing array within twice
// the deepest queue.
func TestResourceDeepQueue(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	var order, hooked []int
	next, deepest := 0, 0
	var add func()
	add = func() {
		i := next
		next++
		done := func() {
			order = append(order, i)
			waiting := next - len(order)
			if r.Busy() {
				waiting--
			}
			if r.QueueLen() != waiting {
				t.Fatalf("after grant %d: QueueLen %d, want %d", i, r.QueueLen(), waiting)
			}
			w := &r.waiters
			for k, req := range w.q[:cap(w.q)] {
				if (k < w.head || k >= len(w.q)) && (req.hold != nil || req.done != nil || req.label != "") {
					t.Fatalf("after grant %d: slot %d outside [%d,%d) still holds a request", i, k, w.head, len(w.q))
				}
			}
			if i%2 == 0 && next < 1000 {
				add()
				add()
			}
			deepest = max(deepest, r.QueueLen())
		}
		if i%3 != 2 {
			r.Use(1, done)
			return
		}
		r.UseGranted("g", func() Time {
			if r.totalGrants != int64(i+1) {
				t.Fatalf("hook of hold %d ran at grant %d, want %d", i, r.totalGrants, i+1)
			}
			hooked = append(hooked, i)
			return 1
		}, done)
	}
	for range 300 {
		add()
	}
	if r.QueueLen() != 299 {
		t.Fatalf("QueueLen %d after 300 holds on an idle resource, want 299", r.QueueLen())
	}
	e.Run()
	if len(order) != next {
		t.Fatalf("%d of %d holds granted", len(order), next)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("grant %d went to hold %d, want FIFO", i, v)
		}
	}
	for k, v := range hooked {
		if v != 3*k+2 {
			t.Fatalf("hook %d ran for hold %d, want %d", k, v, 3*k+2)
		}
	}
	if c := cap(r.waiters.q); c > 2*deepest {
		t.Fatalf("backing array grew to %d slots for a queue at most %d deep", c, deepest)
	}
	if r.QueueLen() != 0 || r.waiters.head != 0 || len(r.waiters.q) != 0 {
		t.Fatalf("drained queue has QueueLen %d, head %d, len %d", r.QueueLen(), r.waiters.head, len(r.waiters.q))
	}
}
