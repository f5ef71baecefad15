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

// BenchmarkEngineSameInstant measures zero-delay events, which go
// through the heap like any other: four zero-delay event chains, one op
// per event, with every sixteenth event one picosecond ahead so the clock
// moves. Steady state is 0 allocs/op.
func BenchmarkEngineSameInstant(b *testing.B) {
	e := NewEngine()
	fired, scheduled := 0, min(4, b.N)
	var tick func()
	tick = func() {
		fired++
		if scheduled == b.N {
			return
		}
		scheduled++
		if fired%16 == 0 {
			e.Schedule(1, tick)
		} else {
			e.Schedule(0, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < scheduled; i++ {
		e.Schedule(0, tick)
	}
	e.Run()
	if fired != b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
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

// BenchmarkEngineThroughput measures raw event-loop performance: 16
// actors issuing 800,000 timed holds over 4 contended resources. ns/op
// is the wall time of that fixed work; events/op is deterministic, so a
// change in how many events the same work takes shows as a change in
// it rather than in a rate. This is the engine's pure fast path (4-ary
// heap push/pop plus the allocation-free timed hold), with no SSD model
// code diluting the measurement.
func BenchmarkEngineThroughput(b *testing.B) {
	b.ReportAllocs()
	var fired int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		var chans [4]*Resource
		for c := range chans {
			chans[c] = NewResource(e, "ch")
		}
		const actors = 16
		const holdsPerActor = 50_000
		for a := 0; a < actors; a++ {
			a := a
			n := 0
			var issue func()
			issue = func() {
				n++
				if n <= holdsPerActor {
					chans[a%len(chans)].Use(Time(1+a%7), issue)
				}
			}
			issue()
		}
		e.Run()
		fired += e.EventsFired()
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}
