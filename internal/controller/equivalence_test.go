package controller

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
)

// mixResult is what one fabric made of the equivalence mix: the
// completion time of every op, and the token each written or copied page
// ends up holding.
type mixResult struct {
	done   []sim.Time
	tokens []flash.Token
}

// runMix drives one fabric through an interleaved read/write/erase/copy
// mix on a 4x4 grid, with every op class contending for the same rows.
// The injector fires every interconnect fault class at rate 1, so any
// draw a fabric makes changes its routing and its fault counts.
func runMix(t *testing.T, vWidthBits int, deadV []int) (mixResult, *OmnibusFabric, *fault.Injector) {
	t.Helper()
	e, g, soc := testRig(4, 4)
	f := NewOmnibusFabric(e, "mix", g, soc, 16384, 8, vWidthBits, 1000, true, true)
	inj := fault.New(fault.Config{Seed: 1, OnDieECCRate: 1, GrantDropRate: 1, DeadVChannels: deadV})
	f.SetFaultInjector(inj)

	var res mixResult
	var dests []func() flash.Token
	op := func(at sim.Time, issue func(done func())) {
		i := len(res.done)
		res.done = append(res.done, -1)
		e.Schedule(at, func() { issue(func() { res.done[i] = e.Now() }) })
	}
	for ch := 0; ch < 4; ch++ {
		for w := 0; w < 4; w++ {
			id := ChipID{ch, w}
			chip := g.Chip(id)
			k := sim.Time(ch*4+w) * sim.Microsecond
			// Block 0 holds readable and copyable pages, block 1 takes
			// writes and copies, block 2 is erased.
			for p := 0; p < 4; p++ {
				chip.InstallPage(flash.PPA{Plane: p, Block: 0, Page: 0}, flash.Token(0x100*ch+0x10*w+p))
				chip.InstallPage(flash.PPA{Plane: p, Block: 2, Page: 0}, 1)
			}
			op(k, func(done func()) {
				f.Read(id, []flash.PPA{{Plane: 0, Block: 0}, {Plane: 1, Block: 0}}, done)
			})
			wr := flash.PPA{Plane: 0, Block: 1, Page: 0}
			op(k+sim.Microsecond, func(done func()) {
				f.Write(id, []flash.ProgramOp{{Addr: wr, Token: flash.Token(0x9000 + ch*4 + w)}}, done)
			})
			dests = append(dests, func() flash.Token { return chip.ContentAt(wr) })
			op(k+2*sim.Microsecond, func(done func()) {
				f.Erase(id, []flash.PPA{{Plane: 2, Block: 2}, {Plane: 3, Block: 2}}, done)
			})
			// Same-column copy to the next row, cross-column copy to the
			// next way.
			for j, dst := range []ChipID{{(ch + 1) % 4, w}, {ch, (w + 1) % 4}} {
				from := flash.PPA{Plane: 2 + j, Block: 0, Page: 0}
				to := flash.PPA{Plane: 2 + j, Block: 1, Page: 1 + ch}
				src, dst := id, dst
				op(k+sim.Time(3+j)*sim.Microsecond, func(done func()) { f.Copy(src, from, dst, to, done) })
				dests = append(dests, func() flash.Token { return g.Chip(dst).ContentAt(to) })
			}
		}
	}
	e.Run()
	for i, d := range res.done {
		if d < 0 {
			t.Fatalf("op %d never completed", i)
		}
	}
	for _, tok := range dests {
		res.tokens = append(res.tokens, tok())
	}
	return res, f, inj
}

// A pnSSD fabric with every v-channel kill-switched is the h-only fabric
// with the same 8-bit packetized h-channels: the pSSD → pnSSD step adds
// v-channels and nothing else. The two must agree on every completion
// time and every page token; only the RAS counters may tell them apart.
// The h-only fabric also leaves the attached injector undrawn.
func TestDeadVFabricMatchesHOnlyFabric(t *testing.T) {
	dead, fd, injDead := runMix(t, 8, []int{0, 1, 2, 3})
	honly, fh, injH := runMix(t, 0, nil)
	if fmt.Sprint(dead) != fmt.Sprint(honly) {
		t.Fatalf("dead-v pnSSD and h-only fabrics diverge:\n dead-v %v\n h-only %v", dead, honly)
	}
	if pd, ph := fmt.Sprint(fd.PathCounts()), fmt.Sprint(fh.PathCounts()); pd != ph {
		t.Fatalf("path counts (h, v, split, direct, relayed) differ: dead-v %s, h-only %s", pd, ph)
	}
	if _, _, _, _, relayed := fh.PathCounts(); relayed != 32 {
		t.Fatalf("h-only fabric relayed %d copies, want all 32", relayed)
	}

	// The dead-v run counts its degraded traffic; the h-only run has none
	// to count and draws no fault.
	if r := injDead.RAS(); r.DegradedReturns != 64 || r.DeadVCopies != 16 {
		t.Fatalf("dead-v RAS: %d degraded returns, %d dead-v copies; want 64 (16 reads, 16 writes, 32 relay writes) and 16", r.DegradedReturns, r.DeadVCopies)
	}
	for _, inj := range []*fault.Injector{injDead, injH} {
		if n := inj.Injected(fault.OnDieECC) + inj.Injected(fault.GrantDrop); n != 0 {
			t.Fatalf("%d interconnect faults drawn on an h-only route", n)
		}
	}
	if r := injH.RAS(); r.TotalFaults() != 0 || r.DegradedReturns != 0 {
		t.Fatalf("h-only fabric recorded RAS events: %+v", *r)
	}
}
