package controller

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
)

func TestRoutePolicyStrings(t *testing.T) {
	if RouteHOnly.String() != "h-only" || RouteGreedy.String() != "greedy" || RouteJSQ.String() != "jsq" {
		t.Fatal("route policy strings wrong")
	}
	if RoutePolicy(9).String() != "route(9)" {
		t.Fatal("unknown route string wrong")
	}
}

// loadAndRead programs a page, piles reads onto one chip's h-channel, and
// returns the v-channel usage counter for the policy.
func vUsageUnder(t *testing.T, policy RoutePolicy) int64 {
	t.Helper()
	e, g, soc := testRig(2, 2)
	f := newOmnibus(e, g, soc, false)
	f.SetRoutePolicy(policy)
	for w := 0; w < 2; w++ {
		g.Chip(ChipID{0, w}).Program([]flash.ProgramOp{{Addr: flash.PPA{Plane: 0, Block: 0, Page: 0}, Token: 1}}, nil)
	}
	e.Run()
	remaining := 6
	for i := 0; i < 6; i++ {
		w := i % 2
		f.Read(ChipID{0, w}, []flash.PPA{{Plane: 0, Block: 0, Page: 0}}, func() { remaining-- })
	}
	e.Run()
	if remaining != 0 {
		t.Fatal("reads incomplete")
	}
	_, v, _, _, _ := f.PathCounts()
	return v
}

func TestRoutingPoliciesDiffer(t *testing.T) {
	hOnly := vUsageUnder(t, RouteHOnly)
	greedy := vUsageUnder(t, RouteGreedy)
	jsq := vUsageUnder(t, RouteJSQ)
	if hOnly != 0 {
		t.Fatalf("h-only used the v-channel %d times", hOnly)
	}
	if greedy == 0 {
		t.Fatal("greedy never diverted under contention")
	}
	if jsq < greedy {
		t.Fatalf("JSQ diverted less than greedy (%d < %d)", jsq, greedy)
	}
}

func TestOnDieEccFallback(t *testing.T) {
	// rate=1: every same-column copy must take the relayed strong-ECC
	// path; rate=0: none.
	run := func(rate float64) (direct, relayed, fallbacks int64, tokenOK bool) {
		e, g, soc := testRig(4, 2)
		f := newOmnibus(e, g, soc, false)
		f.SetFaultInjector(fault.New(fault.Config{Seed: 1, OnDieECCRate: rate}))
		src, dst := ChipID{0, 1}, ChipID{3, 1}
		g.Chip(src).Program([]flash.ProgramOp{{Addr: flash.PPA{Plane: 0, Block: 0, Page: 0}, Token: 0xE0}}, nil)
		e.Run()
		done := false
		f.Copy(src, flash.PPA{Plane: 0, Block: 0, Page: 0}, dst, flash.PPA{Plane: 0, Block: 0, Page: 0}, func() { done = true })
		e.Run()
		if !done {
			t.Fatal("copy incomplete")
		}
		_, _, _, d, r := f.PathCounts()
		return d, r, f.EccFallbacks(), g.Chip(dst).ContentAt(flash.PPA{Plane: 0, Block: 0, Page: 0}) == 0xE0
	}
	d, r, fb, ok := run(1.0)
	if d != 0 || r != 1 || fb != 1 || !ok {
		t.Fatalf("rate=1: direct=%d relayed=%d fallbacks=%d ok=%v", d, r, fb, ok)
	}
	d, r, fb, ok = run(0)
	if d != 1 || r != 0 || fb != 0 || !ok {
		t.Fatalf("rate=0: direct=%d relayed=%d fallbacks=%d ok=%v", d, r, fb, ok)
	}
}

func TestOnDieEccRateApproximatelyRespected(t *testing.T) {
	// With rate 0.3 over many draws, fallbacks should land near 30%.
	e, g, soc := testRig(2, 2)
	f := newOmnibus(e, g, soc, false)
	f.SetFaultInjector(fault.New(fault.Config{Seed: 1, OnDieECCRate: 0.3}))
	fails := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if f.eccFails() {
			fails++
		}
	}
	frac := float64(fails) / n
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("ECC fail fraction = %.3f, want ~0.30", frac)
	}
	_ = e
	_ = soc
}

func TestChannelWaitAccounting(t *testing.T) {
	e := sim.NewEngine()
	g := NewGrid(e, 1, 2, testGeo(), flash.ULLTiming())
	soc := NewSoc(e, 8000, 8000)
	f := NewOmnibusFabric(e, "base", g, soc, 16384, 8, 0, 1000, false, false)
	for w := 0; w < 2; w++ {
		g.Chip(ChipID{0, w}).Program([]flash.ProgramOp{{Addr: flash.PPA{Plane: 0, Block: 0, Page: 0}, Token: 1}}, nil)
	}
	e.Run()
	remaining := 4
	for i := 0; i < 4; i++ {
		f.Read(ChipID{0, i % 2}, []flash.PPA{{Plane: 0, Block: 0, Page: 0}}, func() { remaining-- })
	}
	e.Run()
	if remaining != 0 {
		t.Fatal("reads incomplete")
	}
	ch := f.HChannel(0)
	if ch.MeanWait() <= 0 {
		t.Fatal("contended channel reports zero mean wait")
	}
	if ch.MaxWait() < ch.MeanWait() {
		t.Fatal("max wait below mean wait")
	}
}
