package controller

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
)

// Lost grants must be retried a bounded number of times and then fail
// over to the controller-relayed copy path — never awaited forever.
func TestGrantDropFailsOverToRelay(t *testing.T) {
	e, g, soc := testRig(4, 2)
	f := newOmnibus(e, g, soc, false)
	inj := fault.New(fault.Config{Seed: 1, GrantDropRate: 1.0})
	f.SetFaultInjector(inj)

	src, dst := ChipID{0, 1}, ChipID{3, 1} // same column: direct-eligible
	from := flash.PPA{Plane: 0, Block: 0, Page: 0}
	to := flash.PPA{Plane: 1, Block: 2, Page: 0}
	g.Chip(src).InstallPage(from, 0xC0)

	done := false
	var at sim.Time
	f.Copy(src, from, dst, to, func() { done, at = true, e.Now() })
	e.Run()
	if !done {
		t.Fatal("copy never completed under 100% grant loss")
	}
	// The ladder's timeouts, each drop surfacing when its request
	// arrives, and the relayed copy after the last.
	if want := sim.Time(130_540_000); at != want {
		t.Fatalf("failover copy completed at %v, want %v", at, want)
	}
	if g.Chip(dst).ContentAt(to) != 0xC0 {
		t.Fatal("failover relay lost the page content")
	}
	_, _, _, direct, relayed := f.PathCounts()
	if direct != 0 || relayed != 1 {
		t.Fatalf("direct=%d relayed=%d, want 0/1", direct, relayed)
	}
	ras := inj.RAS()
	if ras.GrantDrops != fault.GrantRetryMax+1 {
		t.Fatalf("GrantDrops = %d, want %d", ras.GrantDrops, fault.GrantRetryMax+1)
	}
	if ras.GrantRetries != fault.GrantRetryMax {
		t.Fatalf("GrantRetries = %d, want %d", ras.GrantRetries, fault.GrantRetryMax)
	}
	if ras.CopyFailovers != 1 {
		t.Fatalf("CopyFailovers = %d, want 1", ras.CopyFailovers)
	}
}

// Occasional grant drops resolve by timeout and retry without giving up
// the direct path.
func TestGrantRetryRecoversDirectPath(t *testing.T) {
	e, g, soc := testRig(4, 2)
	f := newOmnibus(e, g, soc, false)
	// Seed-scan for a sequence that drops the first grant and passes a
	// retry would be brittle; instead drop rate 0 proves the direct path
	// and the 1.0 test above proves the bounded ladder. Here, a mid rate
	// must still always terminate.
	inj := fault.New(fault.Config{Seed: 9, GrantDropRate: 0.5})
	f.SetFaultInjector(inj)

	src, dst := ChipID{0, 1}, ChipID{3, 1}
	completed := 0
	const n = 16
	for i := 0; i < n; i++ {
		from := flash.PPA{Plane: 0, Block: 0, Page: i}
		to := flash.PPA{Plane: 1, Block: 2, Page: i}
		g.Chip(src).InstallPage(from, flash.Token(i+1))
		f.Copy(src, from, dst, to, func() { completed++ })
		e.Run()
		if g.Chip(dst).ContentAt(to) != flash.Token(i+1) {
			t.Fatalf("copy %d corrupted content", i)
		}
	}
	if completed != n {
		t.Fatalf("completed %d/%d copies", completed, n)
	}
	ras := inj.RAS()
	if ras.GrantDrops == 0 {
		t.Fatal("50% drop rate never dropped a grant")
	}
	_, _, _, direct, relayed := f.PathCounts()
	if direct+relayed != n {
		t.Fatalf("direct %d + relayed %d != %d", direct, relayed, n)
	}
	if direct == 0 {
		t.Fatal("no copy survived to the direct path at 50% drop rate")
	}
}

// A dead v-channel forces degraded-mode routing: copies relay through the
// controller and read returns collapse onto the h-channel.
func TestDeadVChannelDegradedRouting(t *testing.T) {
	e, g, soc := testRig(4, 2)
	f := newOmnibus(e, g, soc, true) // split on: dead v must also disable splitting
	inj := fault.New(fault.Config{Seed: 1, DeadVChannels: []int{1}})
	f.SetFaultInjector(inj)

	src, dst := ChipID{0, 1}, ChipID{3, 1} // column served by dead v1
	from := flash.PPA{Plane: 0, Block: 0, Page: 0}
	to := flash.PPA{Plane: 1, Block: 2, Page: 0}
	g.Chip(src).InstallPage(from, 0xD1)

	copied := false
	f.Copy(src, from, dst, to, func() { copied = true })
	e.Run()
	if !copied || g.Chip(dst).ContentAt(to) != 0xD1 {
		t.Fatal("copy across dead v-channel failed")
	}
	ras := inj.RAS()
	if ras.DeadVCopies != 1 {
		t.Fatalf("DeadVCopies = %d, want 1", ras.DeadVCopies)
	}
	_, _, _, direct, relayed := f.PathCounts()
	if direct != 0 || relayed == 0 {
		t.Fatalf("direct=%d relayed=%d: dead v-channel took the direct path", direct, relayed)
	}

	read := false
	g.Chip(ChipID{2, 1}).InstallPage(to, 0xD2)
	f.Read(ChipID{2, 1}, []flash.PPA{to}, func() { read = true })
	e.Run()
	if !read {
		t.Fatal("read in dead column never completed")
	}
	if ras.DegradedReturns == 0 {
		t.Fatal("read return did not record degraded routing")
	}
	h, v, split, _, _ := f.PathCounts()
	if v != 0 || split != 0 || h == 0 {
		t.Fatalf("h=%d v=%d split=%d: dead v-channel carried data", h, v, split)
	}

	// The healthy column is unaffected: split transfers still fire there.
	g.Chip(ChipID{0, 0}).InstallPage(from, 0xD3)
	f.Read(ChipID{0, 0}, []flash.PPA{from}, nil)
	e.Run()
	_, _, split, _, _ = f.PathCounts()
	if split != 1 {
		t.Fatalf("split=%d: healthy column lost split transfers", split)
	}
}

// Reviving the channel restores the direct path.
func TestReviveRestoresDirectCopies(t *testing.T) {
	e, g, soc := testRig(4, 2)
	f := newOmnibus(e, g, soc, false)
	inj := fault.New(fault.Config{Seed: 1})
	f.SetFaultInjector(inj)
	inj.KillVChannel(1)
	inj.ReviveVChannel(1)

	src, dst := ChipID{0, 1}, ChipID{3, 1}
	from := flash.PPA{Plane: 0, Block: 0, Page: 0}
	g.Chip(src).InstallPage(from, 7)
	f.Copy(src, from, dst, flash.PPA{Plane: 0, Block: 1, Page: 0}, nil)
	e.Run()
	_, _, _, direct, relayed := f.PathCounts()
	if direct != 1 || relayed != 0 {
		t.Fatalf("direct=%d relayed=%d after revive, want 1/0", direct, relayed)
	}
}
