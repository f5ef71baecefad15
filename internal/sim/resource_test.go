package sim

import (
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

func TestResourceAcquireRelease(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "die")
	var got []string
	r.Acquire(func() {
		got = append(got, "first")
		e.Schedule(100, func() { r.Release() })
	})
	r.Acquire(func() {
		got = append(got, "second")
		r.Release()
	})
	e.Run()
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("got %v", got)
	}
	if e.Now() != 100 {
		t.Fatalf("now = %v, want 100", e.Now())
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ch")
	okFirst := r.TryAcquire(func() {})
	okSecond := r.TryAcquire(func() { t.Fatal("second TryAcquire callback ran") })
	if !okFirst || okSecond {
		t.Fatalf("TryAcquire = %v, %v; want true, false", okFirst, okSecond)
	}
	e.Run()
	r.Release()
	// With a waiter queued via Acquire, TryAcquire must also fail even if idle.
	r.Use(10, nil)
	if r.TryAcquire(func() {}) {
		t.Fatal("TryAcquire succeeded on busy resource")
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
	r.Release()
}

func TestResourceGrantNotReentrant(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x")
	granted := false
	r.Acquire(func() { granted = true })
	if granted {
		t.Fatal("grant ran re-entrantly inside Acquire")
	}
	e.Run()
	if !granted {
		t.Fatal("grant never ran")
	}
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
// all occur: grants stay FIFO, QueueLen counts exactly the waiters not
// yet granted, no slot outside the live window keeps a request, and the
// slide keeps the backing array within twice the deepest queue.
func TestResourceDeepQueue(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	var order []int
	next, deepest := 0, 0
	var add func()
	add = func() {
		i := next
		next++
		r.Use(1, func() {
			order = append(order, i)
			waiting := next - len(order)
			if r.Busy() {
				waiting--
			}
			if r.QueueLen() != waiting {
				t.Fatalf("after grant %d: QueueLen %d, want %d", i, r.QueueLen(), waiting)
			}
			for k, w := range r.waiters[:cap(r.waiters)] {
				if (k < r.head || k >= len(r.waiters)) && (w.fn != nil || w.done != nil || w.label != "") {
					t.Fatalf("after grant %d: slot %d outside [%d,%d) still holds a request", i, k, r.head, len(r.waiters))
				}
			}
			if i%2 == 0 && next < 1000 {
				add()
				add()
			}
			deepest = max(deepest, r.QueueLen())
		})
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
	if c := cap(r.waiters); c > 2*deepest {
		t.Fatalf("backing array grew to %d slots for a queue at most %d deep", c, deepest)
	}
	if r.QueueLen() != 0 || r.head != 0 || len(r.waiters) != 0 {
		t.Fatalf("drained queue has QueueLen %d, head %d, len %d", r.QueueLen(), r.head, len(r.waiters))
	}
}
