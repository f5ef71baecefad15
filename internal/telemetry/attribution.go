// Latency attribution: each host request carries an Attribution that
// partitions its end-to-end latency [arrival, completion] into named
// phases. Mark(p, now) credits the interval since the previous mark to
// phase p and advances the cursor, so by construction the per-phase
// durations sum exactly to end-to-end latency as long as the final
// mark lands at completion time — FinishRequest verifies the identity
// per request and counts violations instead of trusting it.
package telemetry

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Phase names one segment of a request's life. The taxonomy follows
// the request path: submission-queue wait (including front-end
// arbitration), NVMe command processing, NVMe link transfer (write
// payload in, read return out), FTL stall (GC-driven allocation stalls
// for writes, inflight-write barriers for reads), and flash time (FTL
// issue through fabric transfer and chip ops to the last batch
// completion).
type Phase int

const (
	// PhaseQueue is submission-queue wait: request arrival to NVMe
	// pickup, including front-end arbitration when a Frontend is
	// configured (zero for direct host submission).
	PhaseQueue Phase = iota
	// PhaseCmd is NVMe command processing / controller dispatch.
	PhaseCmd
	// PhaseXfer is NVMe link payload transfer, including any queueing
	// on the link: the inbound write payload, the outbound read return.
	PhaseXfer
	// PhaseStall is FTL stall time separated from useful flash work:
	// writes blocked on free-page allocation behind GC, reads parked
	// behind in-flight writes to the same pages. For a write whose
	// prefix committed before the stall, in-flight program time
	// overlapping the stall is credited here (the stall is the
	// binding constraint).
	PhaseStall
	// PhaseMap is address-translation wait under the fmmu mapping mode:
	// time a request spends blocked on a map-cache miss while its
	// translation page is demand-paged in from flash (including queueing
	// behind an in-flight writeback of the same page). Flat mapping never
	// marks it, and summaries omit the phase unless the map unit is live,
	// so flat-mode output is byte-identical with or without this phase.
	PhaseMap
	// PhaseFlash is FTL issue to last flash batch completion: fabric
	// transfer plus chip ops, the useful device work.
	PhaseFlash
	// NumPhases bounds the per-phase arrays.
	NumPhases
)

var phaseNames = [NumPhases]string{"sq-wait", "cmd", "nvme-xfer", "gc-stall", "map-stall", "flash"}

// String returns the phase's stable short name (used in JSON exports).
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// Attribution tracks one in-flight request's phase breakdown. A nil
// *Attribution is valid and every method no-ops, mirroring the
// collector's passivity contract.
type Attribution struct {
	col     *Collector
	kind    stats.IOKind
	arrival sim.Time
	last    sim.Time
	phase   [NumPhases]sim.Time
}

// StartRequest opens an attribution for a request arriving at arrival.
// Returns nil (a valid no-op attribution) when the collector is nil.
func (c *Collector) StartRequest(kind stats.IOKind, arrival sim.Time) *Attribution {
	if c == nil {
		return nil
	}
	return &Attribution{col: c, kind: kind, arrival: arrival, last: arrival}
}

// Mark credits the time since the previous mark (initially the
// arrival) to phase p and advances the cursor to now. Marks at the
// current cursor time credit exactly zero, so un-stalled paths record
// clean zeros rather than noise.
func (a *Attribution) Mark(p Phase, now sim.Time) {
	if a == nil {
		return
	}
	if now > a.last {
		a.phase[p] += now - a.last
		a.last = now
	}
}

// FinishRequest closes an attribution at completion time, records the
// request into the windowed host series and the per-phase run
// histograms, and checks the partition identity: the phase durations
// must sum exactly to now-arrival. Violations are counted, not
// panicked on — the invariant test asserts the count stays zero.
func (c *Collector) FinishRequest(a *Attribution, now sim.Time, bytes int64) {
	if c == nil || a == nil {
		return
	}
	c.RecordCompletion(a.kind, a.arrival, now, bytes)
	c.requests++
	var sum sim.Time
	k := int(a.kind)
	for p := Phase(0); p < NumPhases; p++ {
		c.phaseHist[k][p].Add(a.phase[p])
		c.phaseTotal[k][p] += a.phase[p]
		sum += a.phase[p]
	}
	if sum != now-a.arrival || a.last != now {
		c.attViolated++
	}
}
