package sim

import "testing"

type poolRec struct{ id int }

// TestPool pins Pool's contract: Get reports fresh only when the pool is
// empty, records come back last in first out, and a warm Get/Put round
// trip allocates nothing.
func TestPool(t *testing.T) {
	var p Pool[poolRec]
	a, fresh := p.Get()
	if !fresh || a == nil || *a != (poolRec{}) {
		t.Fatalf("Get on an empty pool = %+v, fresh %v, want a new zero record, fresh", a, fresh)
	}
	b, fresh := p.Get()
	if !fresh || b == a {
		t.Fatalf("second Get on an empty pool: fresh %v, same record %v, want a second fresh record", fresh, b == a)
	}
	a.id, b.id = 1, 2
	p.Put(a)
	p.Put(b)
	for _, want := range []*poolRec{b, a} {
		if r, fresh := p.Get(); r != want || fresh {
			t.Fatalf("Get = record %d, fresh %v, want record %d, not fresh", r.id, fresh, want.id)
		}
	}
	if r, fresh := p.Get(); !fresh || r == a || r == b {
		t.Fatalf("Get on a drained pool: fresh %v, want a new record", fresh)
	}
	p.Put(a)
	if n := testing.AllocsPerRun(100, func() {
		r, _ := p.Get()
		p.Put(r)
	}); n != 0 {
		t.Fatalf("warm Get/Put allocates %v per round trip, want 0", n)
	}
}

// TestLane pins that Then sets Step and returns the callback Bind bound,
// without allocating, so the callback runs the step Then named.
func TestLane(t *testing.T) {
	type step uint8
	var l Lane[step]
	var ran []step
	l.Bind(func() { ran = append(ran, l.Step) })
	fire := l.Then(3)
	if l.Step != 3 {
		t.Fatalf("Then(3) left Step %d", l.Step)
	}
	fire()
	l.Then(5)()
	if len(ran) != 2 || ran[0] != 3 || ran[1] != 5 {
		t.Fatalf("callbacks ran steps %v, want [3 5]", ran)
	}
	if n := testing.AllocsPerRun(100, func() { l.Then(1) }); n != 0 {
		t.Fatalf("Then allocates %v, want 0", n)
	}
}
