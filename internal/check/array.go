package check

import (
	"fmt"

	"repro/internal/sim"
)

// ArrayChecker asserts the array-tier invariants: acknowledgement
// exactly-once discipline under failover, stripe conservation (every
// committed stripe readable from at least m of its m+k shards), and
// rebuild completeness at drain. It is deliberately decoupled from the
// per-device Checker — the array router is not a simulated resource, so
// these rules are evaluated against closures the array run supplies
// rather than observer hooks. Like the Checker, a nil *ArrayChecker is
// valid and inert, so un-checked array runs need no conditional wiring.
type ArrayChecker struct {
	max        int
	violations []Violation
	truncated  int

	acks       map[int64]sim.Time
	doubleAcks int64
}

// NewArrayChecker builds a checker recording at most
// DefaultMaxViolations in detail.
func NewArrayChecker() *ArrayChecker {
	return &ArrayChecker{max: DefaultMaxViolations, acks: make(map[int64]sim.Time)}
}

func (c *ArrayChecker) violate(at sim.Time, rule, format string, args ...any) {
	if len(c.violations) >= c.max {
		c.truncated++
		return
	}
	c.violations = append(c.violations, Violation{Time: at, Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// Ack records one host-visible completion of array request req. A second
// ack of the same request is the no-double-acks-under-failover breach:
// retry and reconstruction paths must merge into exactly one completion.
func (c *ArrayChecker) Ack(req int64, at sim.Time) {
	if c == nil {
		return
	}
	if first, ok := c.acks[req]; ok {
		c.doubleAcks++
		c.violate(at, "array-double-ack", "request %d acked at %v and again at %v", req, first, at)
		return
	}
	c.acks[req] = at
}

// DoubleAcks returns how many requests were acknowledged more than once.
func (c *ArrayChecker) DoubleAcks() int64 {
	if c == nil {
		return 0
	}
	return c.doubleAcks
}

// CheckAllAcked asserts at drain that every request 0..n-1 was
// acknowledged exactly once (double acks were already caught by Ack).
func (c *ArrayChecker) CheckAllAcked(n int64, at sim.Time) {
	if c == nil {
		return
	}
	for req := int64(0); req < n; req++ {
		if _, ok := c.acks[req]; !ok {
			c.violate(at, "array-missing-ack", "request %d never acknowledged", req)
		}
	}
	if extra := int64(len(c.acks)) - n; extra > 0 {
		c.violate(at, "array-phantom-ack", "%d acks for requests outside [0,%d)", extra, n)
	}
}

// CheckStripeConservation asserts that every committed stripe is
// readable via some m of its width shards: shardOK(stripe, lane)
// reports whether lane's shard is on a live device and its content
// matches the stripe's expected version. minLive is m — losing more
// than k shards of any stripe is data loss the coding cannot hide.
func (c *ArrayChecker) CheckStripeConservation(stripes int64, width, minLive int, shardOK func(stripe int64, lane int) bool, at sim.Time) {
	if c == nil {
		return
	}
	for s := int64(0); s < stripes; s++ {
		live := 0
		for lane := 0; lane < width; lane++ {
			if shardOK(s, lane) {
				live++
			}
		}
		if live < minLive {
			c.violate(at, "array-stripe-loss", "stripe %d has %d/%d readable shards, need %d", s, live, width, minLive)
		}
	}
}

// CheckRebuildComplete asserts at drain that every stripe the rebuild
// was responsible for is re-protected on the spare: rebuilt(stripe)
// reports whether the spare holds a current copy of the lost shard.
func (c *ArrayChecker) CheckRebuildComplete(stripes int64, rebuilt func(stripe int64) bool, at sim.Time) {
	if c == nil {
		return
	}
	for s := int64(0); s < stripes; s++ {
		if !rebuilt(s) {
			c.violate(at, "array-rebuild-incomplete", "stripe %d not re-protected at drain", s)
		}
	}
}

// Violations returns the recorded breaches in detection order.
func (c *ArrayChecker) Violations() []Violation {
	if c == nil {
		return nil
	}
	return c.violations
}

// Err summarizes the run: nil when every invariant held, otherwise an
// error quoting the first violation and the total count.
func (c *ArrayChecker) Err() error {
	if c == nil || len(c.violations) == 0 {
		return nil
	}
	total := len(c.violations) + c.truncated
	return fmt.Errorf("array checker: %d violation(s), first: %s", total, c.violations[0])
}
