package controller

import (
	"testing"

	"repro/internal/flash"
	"repro/internal/sim"
)

func newOmnibus(e *sim.Engine, g *Grid, soc *Soc, split bool) *OmnibusFabric {
	return NewOmnibusFabric(e, "pnssd", g, soc, 16384, 8, 1000, split)
}

func TestOmnibusReadWriteErase(t *testing.T) {
	e, g, soc := testRig(2, 2)
	f := newOmnibus(e, g, soc, false)
	id := ChipID{1, 0}
	a := flash.PPA{Plane: 0, Block: 1, Page: 0}
	var w, r, er bool
	f.Write(id, []flash.ProgramOp{{Addr: a, Token: 5}}, func() { w = true })
	e.Run()
	f.Read(id, []flash.PPA{a}, func() { r = true })
	e.Run()
	f.Erase(id, []flash.PPA{{Plane: 0, Block: 1}}, func() { er = true })
	e.Run()
	if !w || !r || !er {
		t.Fatalf("w=%v r=%v er=%v", w, r, er)
	}
}

func TestOmnibusDirectCopySameColumn(t *testing.T) {
	e, g, soc := testRig(4, 2)
	f := newOmnibus(e, g, soc, false)
	src, dst := ChipID{0, 1}, ChipID{3, 1} // same way, different channels
	from, to := flash.PPA{Plane: 0, Block: 0, Page: 0}, flash.PPA{Plane: 0, Block: 0, Page: 0}
	g.Chip(src).Program([]flash.ProgramOp{{Addr: from, Token: 0xBEEF}}, nil)
	e.Run()
	done := false
	f.Copy(src, from, dst, to, func() { done = true })
	e.Run()
	if !done || g.Chip(dst).ContentAt(to) != 0xBEEF {
		t.Fatal("direct copy failed")
	}
	_, _, _, direct, relayed := f.PathCounts()
	if direct != 1 || relayed != 0 {
		t.Fatalf("direct=%d relayed=%d, want 1, 0", direct, relayed)
	}
	// The h-channels and SoC must stay untouched by the data movement
	// (only the source program earlier used them... the program used soc).
	if f.VChannel(1).TotalBusy() == 0 {
		t.Fatal("v-channel never used for direct copy")
	}
	if f.HChannel(0).TotalBusy() != 0 && f.HChannel(3).TotalBusy() != 0 {
		t.Fatal("h-channels used during direct copy")
	}
}

func TestOmnibusDirectCopyAvoidsHChannels(t *testing.T) {
	e, g, soc := testRig(4, 2)
	f := newOmnibus(e, g, soc, false)
	src, dst := ChipID{1, 0}, ChipID{2, 0}
	g.Chip(src).Program([]flash.ProgramOp{{Addr: flash.PPA{Plane: 0, Block: 0, Page: 0}, Token: 1}}, nil)
	e.Run()
	hBusyBefore := f.HChannel(1).TotalBusy() + f.HChannel(2).TotalBusy()
	socBusyBefore := soc.SysBusBusy()
	f.Copy(src, flash.PPA{Plane: 0, Block: 0, Page: 0}, dst, flash.PPA{Plane: 0, Block: 0, Page: 0}, nil)
	e.Run()
	if f.HChannel(1).TotalBusy()+f.HChannel(2).TotalBusy() != hBusyBefore {
		t.Fatal("direct copy occupied h-channels")
	}
	if soc.SysBusBusy() != socBusyBefore {
		t.Fatal("direct copy crossed the system bus")
	}
}

func TestOmnibusRelayedCopyCrossColumn(t *testing.T) {
	e, g, soc := testRig(2, 2)
	f := newOmnibus(e, g, soc, false)
	src, dst := ChipID{0, 0}, ChipID{1, 1}
	g.Chip(src).Program([]flash.ProgramOp{{Addr: flash.PPA{Plane: 0, Block: 0, Page: 0}, Token: 0xAA}}, nil)
	e.Run()
	done := false
	f.Copy(src, flash.PPA{Plane: 0, Block: 0, Page: 0}, dst, flash.PPA{Plane: 0, Block: 0, Page: 0}, func() { done = true })
	e.Run()
	if !done || g.Chip(dst).ContentAt(flash.PPA{Plane: 0, Block: 0, Page: 0}) != 0xAA {
		t.Fatal("relayed copy failed")
	}
	_, _, _, direct, relayed := f.PathCounts()
	if direct != 0 || relayed != 1 {
		t.Fatalf("direct=%d relayed=%d, want 0, 1", direct, relayed)
	}
}

func TestOmnibusDirectCopyFasterThanRelay(t *testing.T) {
	// Same-column direct copy must beat the controller-relayed route: one
	// channel crossing instead of two, no SoC, no strong-ECC.
	time1 := func(srcW, dstW int) sim.Time {
		e, g, soc := testRig(4, 4)
		f := newOmnibus(e, g, soc, false)
		src, dst := ChipID{0, srcW}, ChipID{3, dstW}
		g.Chip(src).Program([]flash.ProgramOp{{Addr: flash.PPA{Plane: 0, Block: 0, Page: 0}, Token: 1}}, nil)
		e.Run()
		start := e.Now()
		var doneAt sim.Time
		f.Copy(src, flash.PPA{Plane: 0, Block: 0, Page: 0}, dst, flash.PPA{Plane: 0, Block: 0, Page: 0}, func() { doneAt = e.Now() })
		e.Run()
		return doneAt - start
	}
	direct := time1(2, 2)
	relayed := time1(2, 3)
	if direct >= relayed {
		t.Fatalf("direct copy %v not faster than relayed %v", direct, relayed)
	}
}

func TestOmnibusAdaptivePathUnderContention(t *testing.T) {
	// Saturate the h-channel of row 0 with reads from way 0; a read from
	// way 1 should divert to its v-channel.
	e, g, soc := testRig(2, 2)
	f := newOmnibus(e, g, soc, false)
	for w := 0; w < 2; w++ {
		g.Chip(ChipID{0, w}).Program([]flash.ProgramOp{{Addr: flash.PPA{Plane: 0, Block: 0, Page: 0}, Token: 1}}, nil)
	}
	e.Run()
	remaining := 4
	for i := 0; i < 3; i++ {
		f.Read(ChipID{0, 0}, []flash.PPA{{Plane: 0, Block: 0, Page: 0}}, func() { remaining-- })
	}
	f.Read(ChipID{0, 1}, []flash.PPA{{Plane: 0, Block: 0, Page: 0}}, func() { remaining-- })
	e.Run()
	if remaining != 0 {
		t.Fatal("reads incomplete")
	}
	h, v, _, _, _ := f.PathCounts()
	if v == 0 {
		t.Fatalf("no read diverted to v-channel (h=%d v=%d)", h, v)
	}
}

func TestOmnibusSplitUsesBothPaths(t *testing.T) {
	e, g, soc := testRig(2, 2)
	f := newOmnibus(e, g, soc, true)
	id := ChipID{0, 0}
	g.Chip(id).Program([]flash.ProgramOp{{Addr: flash.PPA{Plane: 0, Block: 0, Page: 0}, Token: 1}}, nil)
	e.Run()
	done := false
	f.Read(id, []flash.PPA{{Plane: 0, Block: 0, Page: 0}}, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("split read incomplete")
	}
	_, _, split, _, _ := f.PathCounts()
	if split != 1 {
		t.Fatalf("splitReturns = %d", split)
	}
	if f.HChannel(0).TotalBusy() == 0 || f.VChannel(0).TotalBusy() == 0 {
		t.Fatal("split read did not use both buses")
	}
}

func TestOmnibusSplitFasterOnIdleFabric(t *testing.T) {
	lat := func(split bool) sim.Time {
		e, g, soc := testRig(2, 2)
		f := newOmnibus(e, g, soc, split)
		return readLatency(t, e, f, ChipID{0, 0})
	}
	whole := lat(false)
	halved := lat(true)
	if halved >= whole {
		t.Fatalf("split read %v not faster than whole-page %v", halved, whole)
	}
	// Transfer time should drop by nearly half (8.2us -> ~4.1us page phase).
	saved := whole - halved
	if saved < 6*sim.Microsecond {
		t.Fatalf("split saved only %v", saved)
	}
}

func TestOmnibusVPageBackpressure(t *testing.T) {
	// Exhaust the destination's V-page registers, then issue a direct
	// copy: it must wait and complete once a register frees.
	e, g, soc := testRig(2, 2)
	f := newOmnibus(e, g, soc, false)
	src, dst := ChipID{0, 0}, ChipID{1, 0}
	g.Chip(src).Program([]flash.ProgramOp{{Addr: flash.PPA{Plane: 0, Block: 0, Page: 0}, Token: 9}}, nil)
	e.Run()
	r0 := g.Chip(dst).AcquireVPage()
	r1 := g.Chip(dst).AcquireVPage()
	if r0 < 0 || r1 < 0 {
		t.Fatal("could not exhaust V-page registers")
	}
	done := false
	f.Copy(src, flash.PPA{Plane: 0, Block: 0, Page: 0}, dst, flash.PPA{Plane: 0, Block: 0, Page: 0}, func() { done = true })
	e.RunUntil(20 * sim.Microsecond)
	if done {
		t.Fatal("copy completed despite exhausted V-page registers")
	}
	g.Chip(dst).ReleaseVPage(r0)
	g.Chip(dst).ReleaseVPage(r1)
	e.Run()
	if !done {
		t.Fatal("copy never completed after registers freed")
	}
}

// blockedCopyEvents holds both of dst's V-page registers until release,
// issues one copy from src to dst, and returns the events fired from the
// copy's issue to its completion. A copy that waits for the register
// (rather than polling the buffer status) fires the same events however
// long the block lasts.
func blockedCopyEvents(t *testing.T, build func(*sim.Engine, *Grid, *Soc) Fabric, src, dst ChipID, release sim.Time) int64 {
	t.Helper()
	e, g, soc := testRig(2, 2)
	f := build(e, g, soc)
	from, to := flash.PPA{Plane: 0, Block: 0, Page: 0}, flash.PPA{Plane: 0, Block: 1, Page: 0}
	g.Chip(src).Program([]flash.ProgramOp{{Addr: from, Token: 0x51}}, nil)
	e.Run()
	dstChip := g.Chip(dst)
	r0, r1 := dstChip.AcquireVPage(), dstChip.AcquireVPage()
	start := e.EventsFired()
	release += e.Now()
	e.At(release, func() {
		dstChip.ReleaseVPage(r0)
		dstChip.ReleaseVPage(r1)
	})
	var doneAt sim.Time = -1
	f.Copy(src, from, dst, to, func() { doneAt = e.Now() })
	e.Run()
	if doneAt < release || dstChip.ContentAt(to) != 0x51 {
		t.Fatalf("copy done at %v (registers released at %v), content %x", doneAt, release, dstChip.ContentAt(to))
	}
	if dstChip.VPagesHeld() != 0 {
		t.Fatalf("%d V-page registers held after the copy", dstChip.VPagesHeld())
	}
	return e.EventsFired() - start
}

func TestOmnibusBlockedCopyDoesNotPoll(t *testing.T) {
	build := func(e *sim.Engine, g *Grid, soc *Soc) Fabric { return newOmnibus(e, g, soc, false) }
	src, dst := ChipID{0, 0}, ChipID{1, 0}
	short := blockedCopyEvents(t, build, src, dst, 10*sim.Microsecond)
	long := blockedCopyEvents(t, build, src, dst, sim.Millisecond)
	if short != long {
		t.Fatalf("blocked copy fired %d events for a 10us block, %d for 1ms: it polls", short, long)
	}
}

func TestOmnibusPnSSDSlowerThanPSSDWhenIdle(t *testing.T) {
	// Fig 14 discussion: on an idle fabric pSSD's fat 16-bit channel beats
	// pnSSD's 8-bit h-channel for a single whole-page read.
	ePn, gPn, socPn := testRig(1, 1)
	pn := newOmnibus(ePn, gPn, socPn, false)
	eP, gP, socP := testRig(1, 1)
	p := NewBusFabric(eP, "pssd", gP, socP, 16384, 16, 1000, true)
	latPn := readLatency(t, ePn, pn, ChipID{0, 0})
	latP := readLatency(t, eP, p, ChipID{0, 0})
	if latP >= latPn {
		t.Fatalf("pSSD %v not faster than pnSSD %v on idle fabric", latP, latPn)
	}
}

// TestOmnibusSplitReadReusedFromItsOwnCallback chains split reads in
// which each completion at once reads another page of the same chip, so
// every read after the first runs on the fabric, SoC and chip records
// the previous one just released. Each must see its own token in the
// page register, split again on the idle fabric, and take exactly as
// long as the first.
func TestOmnibusSplitReadReusedFromItsOwnCallback(t *testing.T) {
	e, g, soc := testRig(2, 2)
	f := newOmnibus(e, g, soc, true)
	id := ChipID{1, 1}
	chip := g.Chip(id)
	const chain = 4
	for page := 0; page < chain; page++ {
		chip.Program([]flash.ProgramOp{{Addr: flash.PPA{Plane: page % 4, Block: 0, Page: page}, Token: flash.Token(0xA0 + page)}}, nil)
	}
	e.Run()

	var lat []sim.Time
	var issued sim.Time
	var read func(page int)
	read = func(page int) {
		issued = e.Now()
		f.Read(id, []flash.PPA{{Plane: page % 4, Block: 0, Page: page}}, func() {
			lat = append(lat, e.Now()-issued)
			if got, want := chip.PageRegister(page%4), flash.Token(0xA0+page); got != want {
				t.Fatalf("read %d: page register = %x, want %x", page, got, want)
			}
			if page+1 < chain {
				read(page + 1)
			}
		})
	}
	read(0)
	e.Run()
	if len(lat) != chain {
		t.Fatalf("%d of %d chained reads completed", len(lat), chain)
	}
	for i, l := range lat {
		if l != lat[0] {
			t.Fatalf("read %d took %v, the first %v", i, l, lat[0])
		}
	}
	if _, _, split, _, _ := f.PathCounts(); split != chain {
		t.Fatalf("splitReturns = %d, want %d", split, chain)
	}
}
