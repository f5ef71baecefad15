package controller

import (
	"testing"

	"repro/internal/flash"
	"repro/internal/sim"
)

func TestMeshFabricReadWriteErase(t *testing.T) {
	e, g, soc := testRig(2, 2)
	f := NewMeshFabric(e, "nossd", g, soc, 16384, 8, 1000)
	id := ChipID{1, 1}
	a := flash.PPA{Plane: 0, Block: 0, Page: 0}
	var w, r, er bool
	f.Write(id, []flash.ProgramOp{{Addr: a, Token: 3}}, func() { w = true })
	e.Run()
	if !w || g.Chip(id).ContentAt(a) != 3 {
		t.Fatal("mesh write failed")
	}
	f.Read(id, []flash.PPA{a}, func() { r = true })
	e.Run()
	f.Erase(id, []flash.PPA{{Plane: 0, Block: 0, Page: 0}}, func() { er = true })
	e.Run()
	if !r || !er {
		t.Fatalf("r=%v er=%v", r, er)
	}
}

func TestMeshFabricPinConstraintMuchSlower(t *testing.T) {
	// Fig 14: NoSSD(pin-constraint) with 2-bit links is ~4x slower than
	// the 8-bit variant for page movement.
	lat := func(width int) sim.Time {
		e, g, soc := testRig(2, 2)
		f := NewMeshFabric(e, "nossd", g, soc, 16384, width, 1000)
		return readLatency(t, e, f, ChipID{0, 1})
	}
	wide := lat(8)
	narrow := lat(2)
	ratio := float64(narrow) / float64(wide)
	if ratio < 2.5 || ratio > 4.5 {
		t.Fatalf("2-bit/8-bit read latency ratio = %.2f (narrow=%v wide=%v)", ratio, narrow, wide)
	}
}

func TestMeshFabricFarChipSlower(t *testing.T) {
	e, g, soc := testRig(4, 4)
	f := NewMeshFabric(e, "nossd", g, soc, 16384, 8, 1000)
	near := readLatency(t, e, f, ChipID{0, 0})
	far := readLatency(t, e, f, ChipID{3, 3})
	if far <= near {
		t.Fatalf("far chip read %v not slower than near %v", far, near)
	}
}

func TestMeshFabricCopyDirect(t *testing.T) {
	e, g, soc := testRig(2, 2)
	f := NewMeshFabric(e, "nossd", g, soc, 16384, 8, 1000)
	src, dst := ChipID{0, 0}, ChipID{1, 1}
	g.Chip(src).Program([]flash.ProgramOp{{Addr: flash.PPA{Plane: 0, Block: 0, Page: 0}, Token: 0xCC}}, nil)
	e.Run()
	socBefore := soc.SysBusBusy()
	done := false
	f.Copy(src, flash.PPA{Plane: 0, Block: 0, Page: 0}, dst, flash.PPA{Plane: 0, Block: 0, Page: 0}, func() { done = true })
	e.Run()
	if !done || g.Chip(dst).ContentAt(flash.PPA{Plane: 0, Block: 0, Page: 0}) != 0xCC {
		t.Fatal("mesh copy failed")
	}
	if soc.SysBusBusy() != socBefore {
		t.Fatal("mesh direct copy crossed the system bus")
	}
}

func TestMeshFabricControllerEdgeCongestion(t *testing.T) {
	// All chips in one row answer reads at once: the ejection link into
	// the row controller serializes every page, so the total time is at
	// least ways × page serialization on one link.
	e, g, soc := testRig(1, 4)
	f := NewMeshFabric(e, "nossd", g, soc, 16384, 8, 1000)
	for w := 0; w < 4; w++ {
		g.Chip(ChipID{0, w}).Program([]flash.ProgramOp{{Addr: flash.PPA{Plane: 0, Block: 0, Page: 0}, Token: 1}}, nil)
	}
	e.Run()
	start := e.Now()
	remaining := 4
	for w := 0; w < 4; w++ {
		f.Read(ChipID{0, w}, []flash.PPA{{Plane: 0, Block: 0, Page: 0}}, func() { remaining-- })
	}
	e.Run()
	if remaining != 0 {
		t.Fatal("reads incomplete")
	}
	elapsed := e.Now() - start
	pageSer := sim.Time(16387) * sim.Nanosecond // 8-bit link, 1 flit/ns
	if elapsed < 4*pageSer {
		t.Fatalf("elapsed %v < 4x page serialization %v: no ejection bottleneck", elapsed, 4*pageSer)
	}
}

// The mesh payload stalls at the destination until a V-page register
// frees. The payload needs ~20us to reach the destination, so the short
// block is long enough for the copy to arrive and wait.
func TestMeshBlockedCopyDoesNotPoll(t *testing.T) {
	build := func(e *sim.Engine, g *Grid, soc *Soc) Fabric {
		return NewMeshFabric(e, "nossd", g, soc, 16384, 8, 1000)
	}
	src, dst := ChipID{0, 0}, ChipID{1, 1}
	short := blockedCopyEvents(t, build, src, dst, 50*sim.Microsecond)
	long := blockedCopyEvents(t, build, src, dst, sim.Millisecond)
	if short != long {
		t.Fatalf("blocked copy fired %d events for a 50us block, %d for 1ms: it polls", short, long)
	}
}
