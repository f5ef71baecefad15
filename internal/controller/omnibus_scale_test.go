package controller

import (
	"testing"

	"repro/internal/flash"
	"repro/internal/sim"
)

// Non-square organizations (Sec V-E): wide grids share v-channels across
// columns; tall grids leave surplus controllers without a v-channel.

func TestOmnibusWideGridSharesVChannels(t *testing.T) {
	// 4 channels x 8 ways: 4 controllers, each responsible for one
	// v-channel spanning two columns.
	e, g, soc := testRig(4, 8)
	f := NewOmnibusFabric(e, "pnssd", g, soc, 16384, 8, 8, 1000, true, false)
	if f.NumVChannels() != 4 {
		t.Fatalf("NumVChannels = %d, want 4", f.NumVChannels())
	}
	if f.ColumnsPerVChannel() != 2 {
		t.Fatalf("ColumnsPerVChannel = %d, want 2", f.ColumnsPerVChannel())
	}
	// Ways 0 and 1 share v-channel 0; ways 6 and 7 share v-channel 3.
	if f.VChannel(0) != f.VChannel(1) {
		t.Fatal("ways 0 and 1 should share a v-channel")
	}
	if f.VChannel(1) == f.VChannel(2) {
		t.Fatal("ways 1 and 2 should not share a v-channel")
	}
	if f.VChannel(6) != f.VChannel(7) {
		t.Fatal("ways 6 and 7 should share a v-channel")
	}
}

func TestOmnibusTallGridOneVPerWay(t *testing.T) {
	// 8 channels x 4 ways: 4 v-channels, one per way; half the
	// controllers drive only their h-channel.
	e, g, soc := testRig(8, 4)
	f := NewOmnibusFabric(e, "pnssd", g, soc, 16384, 8, 8, 1000, true, false)
	if f.NumVChannels() != 4 {
		t.Fatalf("NumVChannels = %d, want 4", f.NumVChannels())
	}
	if f.ColumnsPerVChannel() != 1 {
		t.Fatalf("ColumnsPerVChannel = %d, want 1", f.ColumnsPerVChannel())
	}
	for w := 0; w < 4; w++ {
		for w2 := w + 1; w2 < 4; w2++ {
			if f.VChannel(w) == f.VChannel(w2) {
				t.Fatalf("ways %d and %d share a v-channel in tall grid", w, w2)
			}
		}
	}
}

func TestOmnibusWideGridDirectCopyAcrossSharedColumns(t *testing.T) {
	// In a 2x4 grid (colsPerV=2), chips in ways 0 and 1 share a v-channel,
	// so a copy between them is direct even though the ways differ.
	e, g, soc := testRig(2, 4)
	f := NewOmnibusFabric(e, "pnssd", g, soc, 16384, 8, 8, 1000, true, false)
	src, dst := ChipID{0, 0}, ChipID{1, 1} // different ways, same v-group
	g.Chip(src).Program([]flash.ProgramOp{{Addr: flash.PPA{Plane: 0, Block: 0, Page: 0}, Token: 0x5A}}, nil)
	e.Run()
	done := false
	f.Copy(src, flash.PPA{Plane: 0, Block: 0, Page: 0}, dst, flash.PPA{Plane: 0, Block: 0, Page: 0}, func() { done = true })
	e.Run()
	if !done || g.Chip(dst).ContentAt(flash.PPA{Plane: 0, Block: 0, Page: 0}) != 0x5A {
		t.Fatal("shared-column direct copy failed")
	}
	_, _, _, direct, relayed := f.PathCounts()
	if direct != 1 || relayed != 0 {
		t.Fatalf("direct=%d relayed=%d, want direct copy across shared v-group", direct, relayed)
	}
	// Across v-groups (way 0 -> way 2) it must relay.
	g.Chip(ChipID{0, 2}).Program([]flash.ProgramOp{{Addr: flash.PPA{Plane: 0, Block: 0, Page: 0}, Token: 0x5B}}, nil)
	e.Run()
	f.Copy(ChipID{0, 2}, flash.PPA{Plane: 0, Block: 0, Page: 0}, ChipID{0, 0}, flash.PPA{Plane: 0, Block: 1, Page: 0}, nil)
	e.Run()
	_, _, _, direct, relayed = f.PathCounts()
	if relayed != 1 {
		t.Fatalf("cross-group copy not relayed (direct=%d relayed=%d)", direct, relayed)
	}
}

func TestOmnibusWideGridReadWrite(t *testing.T) {
	e, g, soc := testRig(2, 8)
	f := NewOmnibusFabric(e, "pnssd", g, soc, 16384, 8, 8, 1000, true, true)
	var done int
	for w := 0; w < 8; w++ {
		id := ChipID{w % 2, w}
		a := flash.PPA{Plane: 0, Block: 0, Page: 0}
		f.Write(id, []flash.ProgramOp{{Addr: a, Token: flash.Token(w)}}, func() { done++ })
	}
	e.Run()
	if done != 8 {
		t.Fatalf("writes completed = %d", done)
	}
	for w := 0; w < 8; w++ {
		id := ChipID{w % 2, w}
		f.Read(id, []flash.PPA{{Plane: 0, Block: 0, Page: 0}}, func() { done++ })
	}
	e.Run()
	if done != 16 {
		t.Fatalf("reads completed = %d", done-8)
	}
}

func TestOmnibusSharedVChannelContention(t *testing.T) {
	// Two chips sharing one v-channel must serialize their direct copies;
	// chips on separate v-channels copy in parallel.
	copyTime := func(ways int, srcW1, srcW2 int) sim.Time {
		e, g, soc := testRig(2, ways)
		f := NewOmnibusFabric(e, "pnssd", g, soc, 16384, 8, 8, 1000, true, false)
		for _, w := range []int{srcW1, srcW2} {
			g.Chip(ChipID{0, w}).Program([]flash.ProgramOp{{Addr: flash.PPA{Plane: 0, Block: 0, Page: 0}, Token: 1}}, nil)
		}
		e.Run()
		start := e.Now()
		remaining := 2
		for _, w := range []int{srcW1, srcW2} {
			f.Copy(ChipID{0, w}, flash.PPA{Plane: 0, Block: 0, Page: 0},
				ChipID{1, w}, flash.PPA{Plane: 0, Block: 0, Page: 0}, func() { remaining-- })
		}
		e.Run()
		if remaining != 0 {
			t.Fatal("copies incomplete")
		}
		return e.Now() - start
	}
	shared := copyTime(4, 0, 1)   // 2x4: ways 0,1 share v0
	parallel := copyTime(2, 0, 1) // 2x2: ways 0,1 have own v-channels
	if shared <= parallel {
		t.Fatalf("shared v-channel copies (%v) not slower than parallel (%v)", shared, parallel)
	}
}
