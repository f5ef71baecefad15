package flash

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

func TestReadRetryLadderExtendsDieTime(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	a := PPA{Plane: 0, Block: 0, Page: 0}
	c.InstallPage(a, 0xAB)

	inj := fault.New(fault.Config{Seed: 1, ReadECCRate: 1.0})
	c.SetFaults(inj, 0)

	done := false
	c.Read([]PPA{a}, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("faulted read never completed")
	}
	// Rate 1.0 never recovers: the full ladder (3 re-senses at tR +
	// k*2us) then the 10us strong-ECC relay, on top of the base tR.
	want := c.timing.Read
	for k := 1; k <= fault.ReadRetryMax; k++ {
		want += c.timing.Read + sim.Time(k)*fault.ReadRetryStep
	}
	want += fault.StrongECCLatency
	if e.Now() != want {
		t.Fatalf("faulted read took %v, want %v", e.Now(), want)
	}
	if c.PageRegister(0) != 0xAB {
		t.Fatal("relay path lost page content")
	}
	r := inj.RAS()
	if r.ReadFaults != 1 || r.ReadRetries != fault.ReadRetryMax || r.ReadRelays != 1 {
		t.Fatalf("RAS = faults %d retries %d relays %d", r.ReadFaults, r.ReadRetries, r.ReadRelays)
	}
	if r.RetryLadder.Max() != fault.ReadRetryMax {
		t.Fatalf("retry ladder max = %d", r.RetryLadder.Max())
	}
}

func TestZeroRateAddsNoPenalty(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	a := PPA{Plane: 0, Block: 0, Page: 0}
	c.InstallPage(a, 1)
	c.SetFaults(fault.New(fault.Config{Seed: 1}), 0)
	c.Read([]PPA{a}, nil)
	e.Run()
	if e.Now() != c.timing.Read {
		t.Fatalf("unfaulted read took %v, want %v", e.Now(), c.timing.Read)
	}
	if inj := c.faults; inj.RAS().ReadFaults != 0 {
		t.Fatal("zero-rate injector recorded read faults")
	}
}

func TestMultiPlaneWorstPageBounds(t *testing.T) {
	// With rate 1.0 every page faults; planes re-sense in parallel so the
	// multi-plane read still costs one ladder, not four.
	e := sim.NewEngine()
	c := newTestChip(e)
	var ppas []PPA
	for pl := 0; pl < 4; pl++ {
		a := PPA{Plane: pl, Block: 0, Page: 0}
		c.InstallPage(a, Token(pl+1))
		ppas = append(ppas, a)
	}
	inj := fault.New(fault.Config{Seed: 1, ReadECCRate: 1.0})
	c.SetFaults(inj, 0)
	c.Read(ppas, nil)
	e.Run()
	want := c.timing.Read
	for k := 1; k <= fault.ReadRetryMax; k++ {
		want += c.timing.Read + sim.Time(k)*fault.ReadRetryStep
	}
	want += fault.StrongECCLatency
	if e.Now() != want {
		t.Fatalf("multi-plane faulted read took %v, want %v (worst page only)", e.Now(), want)
	}
	if inj.RAS().ReadFaults != 4 {
		t.Fatalf("ReadFaults = %d, want 4", inj.RAS().ReadFaults)
	}
}

// holdLog records every completed die hold as "grant+length", by die, in
// release order.
type holdLog map[string][]string

func (h holdLog) ResourceHold(r *sim.Resource, _ string, _, grantedAt, releasedAt sim.Time) {
	h[r.Name()] = append(h[r.Name()], fmt.Sprintf("%v+%v", grantedAt, releasedAt-grantedAt))
}

func (holdLog) ResourceQueue(*sim.Resource, int, sim.Time) {}

// TestReadPenaltiesDrawnInGrantOrder: every chip draws its read fault
// penalties from one counter, so a read's penalty depends on where its
// draws fall in that stream, and they are drawn at the grant. Three reads
// are granted in one instant here, one at another read's release on its
// die and two at issue, and a fourth, issued in that instant before the
// third, is queued and granted later. Each die hold must last tR plus the
// penalty drawn for it in grant order. The test also checks that the
// issue order would give other lengths, so drawing at issue cannot pass.
func TestReadPenaltiesDrawnInGrantOrder(t *testing.T) {
	const seed = 2
	cfg := fault.Config{Seed: seed, ReadECCRate: 0.5}
	e := sim.NewEngine()
	arr := NewArray(e, 3, func(b []byte, i int) []byte { return append(b, 'c', byte('0'+i)) }, testGeo(), ULLTiming())
	inj := fault.New(cfg)
	got := holdLog{}
	a := PPA{}
	for i := range arr.Chips {
		c := &arr.Chips[i]
		c.InstallPage(a, Token(i+1))
		c.SetFaults(inj, uint64(i))
		c.AddObserver(got)
	}
	c0, c1, c2 := &arr.Chips[0], &arr.Chips[1], &arr.Chips[2]
	read := func(c *Chip, done func()) { c.Read([]PPA{a}, done) }
	// Issue order r0 r1 r2 r4 r3; grant order r0 r1 r2 r3 r4.
	read(c0, func() { // r0, granted at issue
		read(c1, nil) // r2, granted at issue when r0 ends
		read(c1, nil) // r4, queued behind r2
		read(c2, nil) // r3, granted at issue when r0 ends
	})
	read(c0, nil) // r1, granted at r0's release
	e.Run()

	// A twin injector with the same seed replays the draw stream: L[k]
	// is the length of the k-th read to draw.
	twin := NewChip(sim.NewEngine(), "twin", testGeo(), ULLTiming())
	twin.SetFaults(fault.New(cfg), 0)
	var L [5]sim.Time
	for k := range L {
		L[k] = twin.timing.Read + twin.readFaultPenalty(1)
	}
	hold := func(at, d sim.Time) string { return fmt.Sprintf("%v+%v", at, d) }
	want := holdLog{
		"c0/die": {hold(0, L[0]), hold(L[0], L[1])},
		"c1/die": {hold(L[0], L[2]), hold(L[0]+L[2], L[4])},
		"c2/die": {hold(L[0], L[3])},
	}
	atIssue := holdLog{
		"c0/die": {hold(0, L[0]), hold(L[0], L[1])},
		"c1/die": {hold(L[0], L[2]), hold(L[0]+L[2], L[3])},
		"c2/die": {hold(L[0], L[4])},
	}
	if fmt.Sprint(want) == fmt.Sprint(atIssue) {
		t.Fatalf("seed %d draws equal lengths for r3 and r4, so it cannot tell grant order from issue order", seed)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("die holds %v, want %v (penalties drawn in grant order)", got, want)
	}
}
