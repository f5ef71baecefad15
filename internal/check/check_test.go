package check

import (
	"strings"
	"testing"

	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
	"repro/internal/trace"
)

func newChecker() (*sim.Engine, *Checker) {
	e := sim.NewEngine()
	return e, New(e)
}

func TestNilCheckerIsInert(t *testing.T) {
	var c *Checker
	if c.Enabled() {
		t.Fatal("nil checker reports enabled")
	}
	c.RegisterResource("x", trace.KindHChannel)
	c.ResourceHold(nil, "read-cmd", 0, 0, 0)
	c.ResourceQueue(nil, 1, 0)
	c.PageWritten(0, 1)
	c.SetContentProbe(nil)
	c.WatchCopies(1)
	c.CopyRouted(controller.ChipID{}, controller.ChipID{}, true)
	c.WatchIdle("x", nil)
	c.AddDrainCheck("x", nil)
	if err := c.Verify(); err != nil {
		t.Fatalf("nil Verify: %v", err)
	}
	if c.Checks() != 0 || c.Violations() != nil {
		t.Fatal("nil checker accumulated state")
	}
}

func TestLabelLegality(t *testing.T) {
	e, c := newChecker()
	r := sim.NewResource(e, "v0")
	c.RegisterResource("v0", trace.KindVChannel)

	// gc-vxfer is legal on a v-channel; gc-read-xfer (the relayed GC
	// transfer) is h-channel work and must be flagged.
	c.ResourceHold(r, "gc-vxfer", 0, 0, 10)
	if err := c.Verify(); err != nil {
		t.Fatalf("legal label flagged: %v", err)
	}
	c.ResourceHold(r, "gc-read-xfer", 10, 10, 20)
	err := c.Verify()
	if err == nil || !strings.Contains(err.Error(), "label-legality") {
		t.Fatalf("illegal v-channel label not flagged: %v", err)
	}
}

func TestUnknownResourceSkipsLabelCheck(t *testing.T) {
	e, c := newChecker()
	r := sim.NewResource(e, "mystery")
	c.ResourceHold(r, "anything-goes", 0, 0, 5)
	if err := c.Verify(); err != nil {
		t.Fatalf("unregistered resource label flagged: %v", err)
	}
}

func TestHoldOrderAndOverlap(t *testing.T) {
	e, c := newChecker()
	r := sim.NewResource(e, "h0")
	c.RegisterResource("h0", trace.KindHChannel)

	c.ResourceHold(r, "read-xfer", 5, 3, 10)  // granted before queued
	c.ResourceHold(r, "read-xfer", 0, 8, 20)  // overlaps [3,10]
	c.ResourceHold(r, "read-xfer", 0, 30, 25) // released before granted
	err := c.Verify()
	if err == nil {
		t.Fatal("no violations reported")
	}
	for _, rule := range []string{"hold-order", "hold-overlap"} {
		if !strings.Contains(err.Error(), rule) {
			t.Errorf("missing %s in: %v", rule, err)
		}
	}
	if got := len(c.Violations()); got < 3 {
		t.Fatalf("violations = %d, want >= 3", got)
	}
}

func TestQueueDepthAndClock(t *testing.T) {
	e, c := newChecker()
	r := sim.NewResource(e, "h0")
	c.ResourceQueue(r, 2, 10)
	c.ResourceQueue(r, -1, 10) // negative depth
	c.ResourceQueue(r, 0, 5)   // time went backwards
	err := c.Verify()
	if err == nil {
		t.Fatal("no violations reported")
	}
	for _, rule := range []string{"queue-depth", "clock-monotonic"} {
		if !strings.Contains(err.Error(), rule) {
			t.Errorf("missing %s in: %v", rule, err)
		}
	}
}

func TestCopyColumnInvariant(t *testing.T) {
	_, c := newChecker()
	c.WatchCopies(2) // ways 0,1 on v0; ways 2,3 on v1
	c.CopyRouted(controller.ChipID{Channel: 0, Way: 0}, controller.ChipID{Channel: 1, Way: 1}, true)
	c.CopyRouted(controller.ChipID{Channel: 0, Way: 0}, controller.ChipID{Channel: 1, Way: 3}, false)
	if err := c.Verify(); err != nil {
		t.Fatalf("legal copies flagged: %v", err)
	}
	c.CopyRouted(controller.ChipID{Channel: 0, Way: 0}, controller.ChipID{Channel: 1, Way: 2}, true)
	err := c.Verify()
	if err == nil || !strings.Contains(err.Error(), "copy-column") {
		t.Fatalf("cross-column direct copy not flagged: %v", err)
	}
	if d, r := c.CopyCounts(); d != 2 || r != 1 {
		t.Fatalf("copy counts = (%d,%d), want (2,1)", d, r)
	}
}

func TestPageConservation(t *testing.T) {
	_, c := newChecker()
	store := map[int64]flash.Token{}
	c.SetContentProbe(func(lpn int64) (flash.Token, bool) {
		tok, ok := store[lpn]
		return tok, ok
	})
	c.PageWritten(1, 0xA)
	c.PageWritten(2, 0xB)
	store[1], store[2] = 0xA, 0xB
	if err := c.Verify(); err != nil {
		t.Fatalf("conserved pages flagged: %v", err)
	}
	store[2] = 0xFF  // corrupted
	delete(store, 1) // lost
	err := c.Verify()
	if err == nil || !strings.Contains(err.Error(), "page-conservation") {
		t.Fatalf("lost/corrupted pages not flagged: %v", err)
	}
	if got := len(c.Violations()); got != 2 {
		t.Fatalf("violations = %d, want 2", got)
	}
}

func TestVerifyIdempotent(t *testing.T) {
	_, c := newChecker()
	c.AddDrainCheck("always-bad", func() error { return errTest })
	err1 := c.Verify()
	err2 := c.Verify()
	if err1 == nil || err2 == nil {
		t.Fatal("drain check not reported")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("Verify not idempotent:\n%v\nvs\n%v", err1, err2)
	}
	if got := len(c.Violations()); got != 1 {
		t.Fatalf("violations duplicated across Verify calls: %d", got)
	}
}

var errTest = &verifyErr{}

type verifyErr struct{}

func (*verifyErr) Error() string { return "synthetic failure" }

func TestViolationCap(t *testing.T) {
	e := sim.NewEngine()
	c := New(e)
	c.max = 2
	r := sim.NewResource(e, "h0")
	for i := 0; i < 5; i++ {
		c.ResourceQueue(r, -1, 0)
	}
	if got := len(c.Violations()); got != 2 {
		t.Fatalf("violations = %d, want cap 2", got)
	}
	if err := c.Verify(); err == nil || !strings.Contains(err.Error(), "past the cap") {
		t.Fatalf("dropped count not reported: %v", err)
	}
}

func TestRASBalance(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 7})
	if err := RASBalance(inj)(); err != nil {
		t.Fatalf("zeroed ledger imbalanced: %v", err)
	}
	if err := RASBalance(nil)(); err != nil {
		t.Fatalf("nil injector: %v", err)
	}
	// Unbalance the ledger: a drop with no matching retry or failover.
	inj.RAS().GrantDrops++
	if err := RASBalance(inj)(); err == nil {
		t.Fatal("imbalanced ledger not flagged")
	}
}

func TestWatchIdleReportsLeaks(t *testing.T) {
	_, c := newChecker()
	busy := true
	c.WatchIdle("stuck-bus", func() (bool, int) { return busy, 0 })
	err := c.Verify()
	if err == nil || !strings.Contains(err.Error(), "drain-leak") {
		t.Fatalf("leak not flagged: %v", err)
	}
	busy = false
	if err := c.Verify(); err != nil {
		t.Fatalf("idle resource flagged: %v", err)
	}
}
