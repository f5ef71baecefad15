package mesh

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPathXY(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 4, 4, 8, 1000)
	// X first, then Y.
	p := m.Path(Node{0, 0}, Node{2, 3})
	want := []Node{{0, 0}, {1, 0}, {2, 0}, {2, 1}, {2, 2}, {2, 3}}
	if len(p) != len(want) {
		t.Fatalf("path = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
}

func TestPathControllerEndpoints(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 4, 4, 8, 1000)
	// Controller 1 to chip (2,3): inject at (0,1), X to (2,1), Y to (2,3).
	p := m.Path(Controller(1), Node{2, 3})
	if p[0] != Controller(1) || p[1] != (Node{0, 1}) || p[len(p)-1] != (Node{2, 3}) {
		t.Fatalf("path = %v", p)
	}
	if hops := len(p) - 1; hops != 5 {
		t.Fatalf("hops = %d, want 5", hops)
	}
	// Chip back to a different controller: X to column 0 first, then Y, then eject.
	p = m.Path(Node{3, 0}, Controller(2))
	last := p[len(p)-1]
	if !last.IsController() || last.Y != 2 {
		t.Fatalf("path = %v", p)
	}
	for i := 1; i < len(p)-1; i++ {
		if p[i].IsController() {
			t.Fatalf("controller in the middle of path %v", p)
		}
	}
}

func TestPathSameNode(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 4, 4, 8, 1000)
	if got := len(m.Path(Node{1, 1}, Node{1, 1})) - 1; got != 0 {
		t.Fatalf("self hops = %d", got)
	}
}

// Property: paths are connected (adjacent hops), dimension-ordered, and
// minimal in length.
func TestPathProperty(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 8, 8, 2, 1000)
	prop := func(x1, y1, x2, y2 uint8) bool {
		src := Node{int(x1) % 8, int(y1) % 8}
		dst := Node{int(x2) % 8, int(y2) % 8}
		p := m.Path(src, dst)
		// minimal
		wantLen := abs(src.X-dst.X) + abs(src.Y-dst.Y) + 1
		if len(p) != wantLen {
			return false
		}
		turned := false
		for i := 1; i < len(p); i++ {
			dx, dy := abs(p[i].X-p[i-1].X), abs(p[i].Y-p[i-1].Y)
			if dx+dy != 1 {
				return false // non-adjacent hop
			}
			if dy == 1 {
				turned = true
			}
			if dx == 1 && turned {
				return false // X movement after Y: violates DOR
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestTransferLatency(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 4, 4, 8, 1000) // 1 flit/ns links
	var doneAt sim.Time
	m.Transfer(Controller(0), Node{1, 0}, 100, func() { doneAt = e.Now() })
	e.Run()
	// 2 links; pipelined: last link starts after hop(10ns)+beat(1ns), then
	// serializes 100 flits. Total = 11 + 100 + ... first link grant at 0.
	want := (DefaultHopLatency + sim.Nanosecond) + 100*sim.Nanosecond
	if doneAt != want {
		t.Fatalf("2-hop transfer done at %v, want %v", doneAt, want)
	}
}

// TestTransferEventsPerHop pins what a k-hop transfer costs: one event
// per link hold and one per cut-through of the head to the next link,
// 2k-1 in all. A hop's hold length is set at its grant, which costs no
// event of its own.
func TestTransferEventsPerHop(t *testing.T) {
	for _, dst := range []Node{{0, 0}, {1, 0}, {3, 0}, {3, 2}, {2, 3}} {
		e := sim.NewEngine()
		m := New(e, 4, 4, 8, 1000)
		k := len(m.Path(Controller(0), dst)) - 1
		done := 0
		m.Transfer(Controller(0), dst, 100, func() { done++ })
		e.Run()
		if done != 1 {
			t.Fatalf("%d-hop transfer completed %d times", k, done)
		}
		if got, want := e.EventsFired(), int64(2*k-1); got != want {
			t.Errorf("%d-hop transfer fired %d events, want %d", k, got, want)
		}
	}
}

func TestTransferPinConstraintSlowdown(t *testing.T) {
	e2 := sim.NewEngine()
	narrow := New(e2, 8, 8, 2, 1000)
	e8 := sim.NewEngine()
	wide := New(e8, 8, 8, 8, 1000)
	var tNarrow, tWide sim.Time
	narrow.Transfer(Controller(0), Node{7, 7}, 16387, func() { tNarrow = e2.Now() })
	wide.Transfer(Controller(0), Node{7, 7}, 16387, func() { tWide = e8.Now() })
	e2.Run()
	e8.Run()
	ratio := float64(tNarrow) / float64(tWide)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("2-bit vs 8-bit transfer ratio = %.2f, want ~4 (%v vs %v)", ratio, tNarrow, tWide)
	}
}

func TestTransferSameNode(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 2, 2, 8, 1000)
	done := false
	m.Transfer(Node{1, 1}, Node{1, 1}, 50, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("degenerate transfer never completed")
	}
}

func TestCongestionAtControllerEdge(t *testing.T) {
	// All chips in row 0 send a page to controller 0 simultaneously: the
	// ejection link serializes everything, so total time is ~N * serTime,
	// and the edge link shows the load.
	e := sim.NewEngine()
	m := New(e, 8, 1, 8, 1000)
	flits := 16387
	remaining := 8
	for x := 0; x < 8; x++ {
		m.Transfer(Node{x, 0}, Controller(0), flits, func() { remaining-- })
	}
	e.Run()
	if remaining != 0 {
		t.Fatalf("%d transfers never completed", remaining)
	}
	serial := sim.Time(8*flits) * sim.Nanosecond
	if e.Now() < serial {
		t.Fatalf("completed in %v, faster than ejection-link serialization %v", e.Now(), serial)
	}
	eject := m.Link(Node{0, 0}, Controller(0))
	if eject.TotalBusy() != serial {
		t.Fatalf("ejection link busy %v, want %v", eject.TotalBusy(), serial)
	}
	// Every other controller edge link stayed idle.
	var edge sim.Time
	for y := 0; y < m.h; y++ {
		edge += m.Link(Node{0, y}, Controller(y)).TotalBusy() + m.Link(Controller(y), Node{0, y}).TotalBusy()
	}
	if edge != serial {
		t.Fatalf("controller edge links busy %v, want %v", edge, serial)
	}
}

func TestLinkMissingPanics(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, 2, 2, 8, 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("non-adjacent link lookup did not panic")
		}
	}()
	m.Link(Node{0, 0}, Node{1, 1})
}

func TestNodeString(t *testing.T) {
	if Controller(3).String() != "ctrl3" || (Node{1, 2}).String() != "(1,2)" {
		t.Fatal("node strings wrong")
	}
}
