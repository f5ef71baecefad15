package check

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestArrayCheckerNilIsInert(t *testing.T) {
	var c *ArrayChecker
	c.Ack(0, 0)
	c.CheckAllAcked(4, 0)
	c.CheckStripeConservation(4, 3, 2, nil, 0)
	c.CheckRebuildComplete(4, nil, 0)
	if c.DoubleAcks() != 0 || c.Violations() != nil || c.Err() != nil {
		t.Fatal("nil array checker is not inert")
	}
}

func TestArrayCheckerDoubleAck(t *testing.T) {
	c := NewArrayChecker()
	c.Ack(0, sim.Microsecond)
	c.Ack(1, 2*sim.Microsecond)
	c.Ack(0, 3*sim.Microsecond) // failover path acked again
	if c.DoubleAcks() != 1 {
		t.Fatalf("DoubleAcks = %d, want 1", c.DoubleAcks())
	}
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Rule != "array-double-ack" {
		t.Fatalf("violations: %v", vs)
	}
	c.CheckAllAcked(2, 4*sim.Microsecond)
	if len(c.Violations()) != 1 {
		t.Fatalf("clean ledger grew violations: %v", c.Violations())
	}
}

func TestArrayCheckerMissingAndPhantomAcks(t *testing.T) {
	c := NewArrayChecker()
	c.Ack(0, 0)
	c.Ack(7, 0) // outside [0,2)
	c.CheckAllAcked(2, sim.Microsecond)
	var rules []string
	for _, v := range c.Violations() {
		rules = append(rules, v.Rule)
	}
	joined := strings.Join(rules, ",")
	if !strings.Contains(joined, "array-missing-ack") {
		t.Fatalf("missing ack not flagged: %v", rules)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "violation") {
		t.Fatalf("Err() = %v", err)
	}
}

func TestArrayCheckerStripeConservation(t *testing.T) {
	c := NewArrayChecker()
	// 4 stripes, width 3, need 2 live shards. Stripe 2 lost two shards.
	ok := func(stripe int64, lane int) bool {
		if stripe == 2 {
			return lane == 0
		}
		return lane != 1 // one dead lane everywhere else: still conserved
	}
	c.CheckStripeConservation(4, 3, 2, ok, sim.Second)
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Rule != "array-stripe-loss" || !strings.Contains(vs[0].Detail, "stripe 2") {
		t.Fatalf("violations: %v", vs)
	}
}

func TestArrayCheckerRebuildComplete(t *testing.T) {
	c := NewArrayChecker()
	c.CheckRebuildComplete(5, func(s int64) bool { return s != 3 }, sim.Second)
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Rule != "array-rebuild-incomplete" {
		t.Fatalf("violations: %v", vs)
	}
}

func TestArrayCheckerTruncatesAtCap(t *testing.T) {
	c := NewArrayChecker()
	c.max = 2
	c.CheckRebuildComplete(10, func(int64) bool { return false }, 0)
	if len(c.Violations()) != 2 {
		t.Fatalf("recorded %d violations, cap 2", len(c.Violations()))
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "10 violation(s)") {
		t.Fatalf("Err() = %v, want total 10", err)
	}
}
