package sim

import "testing"

// BenchmarkEngineSchedule measures the raw push/pop cost of the 4-ary
// event heap: a self-rescheduling event chain that keeps the queue warm
// without growing it.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(1, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(1, tick)
	e.Run()
	if n != b.N {
		b.Fatalf("fired %d events, want %d", n, b.N)
	}
}

// BenchmarkResourceHold measures the timed-hold fast path: Use on an
// idle resource, grant, release. After warm-up it must run at 0
// allocs/op — the grant/release steps are pre-bound method values and
// the hold parameters ride in resource fields, never in closures.
func BenchmarkResourceHold(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "ch")
	for i := 0; i < 8; i++ {
		r.Use(10, nil) // warm the event and waiter storage
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Use(10, nil)
		e.Run()
	}
}

// BenchmarkResourceHoldContended is the same path with a standing queue:
// four holds outstanding per iteration, so every release grants a waiter.
func BenchmarkResourceHoldContended(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "ch")
	for i := 0; i < 8; i++ {
		r.Use(10, nil)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Use(7, nil)
		r.Use(5, nil)
		r.Use(3, nil)
		r.Use(2, nil)
		e.Run()
	}
}

// BenchmarkWindowedSparse records busy intervals far apart in time. The
// series grows straight to the interval's window in one append, so sparse
// traffic does not reallocate once per empty window in between.
func BenchmarkWindowedSparse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u := NewWindowed(Microsecond)
		// One early interval, then one 50 ms later: ~50k empty windows
		// crossed in a single growth step.
		u.AddBusy(0, Microsecond)
		u.AddBusy(50*Millisecond, 50*Millisecond+Microsecond)
	}
}
