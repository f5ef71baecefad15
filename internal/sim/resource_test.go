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
	if r.TotalGrants() != 5 {
		t.Fatalf("TotalGrants = %d, want 5", r.TotalGrants())
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
	e.Step() // grant the Use
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
