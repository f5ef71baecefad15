package controller

import (
	"testing"

	"repro/internal/flash"
	"repro/internal/sim"
)

// exchangeCase runs one operation on an idle rig that crosses the
// Omnibus control plane once, and returns the instant it completed.
type exchangeCase struct {
	name string
	run  func(t *testing.T, e *sim.Engine, g *Grid, soc *Soc) sim.Time
}

var exchangeCases = []exchangeCase{
	{"direct-copy", func(t *testing.T, e *sim.Engine, g *Grid, soc *Soc) sim.Time {
		f := newOmnibus(e, g, soc, false)
		src, dst := ChipID{0, 1}, ChipID{3, 1} // same column
		from, to := flash.PPA{Plane: 0, Block: 0, Page: 0}, flash.PPA{Plane: 1, Block: 2, Page: 0}
		g.Chip(src).InstallPage(from, 0xC0)
		var at sim.Time
		f.Copy(src, from, dst, to, func() { at = e.Now() })
		e.Run()
		if _, _, _, direct, _ := f.PathCounts(); direct != 1 || g.Chip(dst).ContentAt(to) != 0xC0 {
			t.Fatalf("direct copies = %d, want 1 with the page landed", direct)
		}
		return at
	}},
	{"v-read", func(t *testing.T, e *sim.Engine, g *Grid, soc *Soc) sim.Time {
		f := newOmnibus(e, g, soc, false)
		id, a := ChipID{0, 1}, flash.PPA{Plane: 0, Block: 0, Page: 0}
		g.Chip(id).InstallPage(a, 0xC1)
		var at sim.Time
		f.Read(id, []flash.PPA{a}, func() { at = e.Now() })
		// h is held from the read command's end past the sense, so the
		// return takes v.
		f.HChannel(0).Use(20*sim.Microsecond, nil)
		e.Run()
		if _, v, _, _, _ := f.PathCounts(); v != 1 {
			t.Fatalf("v returns = %d, want 1", v)
		}
		return at
	}},
	{"split-read", func(t *testing.T, e *sim.Engine, g *Grid, soc *Soc) sim.Time {
		f := newOmnibus(e, g, soc, true)
		id, a := ChipID{0, 1}, flash.PPA{Plane: 0, Block: 0, Page: 0}
		g.Chip(id).InstallPage(a, 0xC2)
		var at sim.Time
		f.Read(id, []flash.PPA{a}, func() { at = e.Now() })
		e.Run()
		if _, _, split, _, _ := f.PathCounts(); split != 1 {
			t.Fatalf("split returns = %d, want 1", split)
		}
		return at
	}},
	{"v-write", func(t *testing.T, e *sim.Engine, g *Grid, soc *Soc) sim.Time {
		f := newOmnibus(e, g, soc, false)
		id, a := ChipID{0, 1}, flash.PPA{Plane: 0, Block: 0, Page: 0}
		f.HChannel(0).Use(10*sim.Microsecond, nil) // row busy at delivery: the payload takes v
		var at sim.Time
		f.Write(id, []flash.ProgramOp{{Addr: a, Token: 0xC3}}, func() { at = e.Now() })
		e.Run()
		if f.HChannel(0).TotalBusy() != 10*sim.Microsecond || f.VChannel(1).TotalBusy() == 0 {
			t.Fatal("write payload did not take the v-channel")
		}
		if g.Chip(id).ContentAt(a) != 0xC3 {
			t.Fatal("write never landed")
		}
		return at
	}},
}

// Each Omnibus control-plane exchange whose request only sends the
// reply is one event: a v-channel request/grant and a direct copy's
// request→status hop. The completion instants are those of the model
// that fired one event per message, and each case fires exactly one
// event fewer than it did.
func TestCtrlExchangeOneEvent(t *testing.T) {
	want := map[string]struct {
		at     sim.Time
		events int64 // with one event per one-way message
	}{
		"direct-copy":        {69_911_000, 8},
		"v-read":             {24_299_000, 8},
		"split-read":         {16_107_000, 8},
		"v-write":            {71_241_000, 6},
		"direct-copy/ctrl-0": {69_611_000, 8},
		"v-read/ctrl-0":      {24_099_000, 8},
		"split-read/ctrl-0":  {15_907_000, 8},
		"v-write/ctrl-0":     {71_041_000, 6},
	}
	for _, zero := range []bool{false, true} {
		for _, tc := range exchangeCases {
			name := tc.name
			if zero {
				name += "/ctrl-0"
			}
			t.Run(name, func(t *testing.T) {
				e, g, soc := testRig(4, 2)
				if zero {
					soc.SetCtrlMsgLatency(0)
				}
				at := tc.run(t, e, g, soc)
				w := want[name]
				if at != w.at {
					t.Errorf("completed at %v, want %v", at, w.at)
				}
				if got := e.EventsFired(); got != w.events-1 {
					t.Errorf("fired %d events, want %d (one fewer than %d)", got, w.events-1, w.events)
				}
			})
		}
	}
}
