package stats

import (
	"fmt"
	"sort"
	"strings"
)

// CountHist is a dense histogram over small non-negative integer counts —
// retry-ladder depths, retired blocks per chip, and similar RAS
// quantities where the domain is a handful of integers rather than a
// latency range.
type CountHist struct {
	counts []int64
	n      int64
}

// NewCountHist returns an empty count histogram.
func NewCountHist() *CountHist { return &CountHist{} }

// Add records one sample. Negative samples panic: retry and retirement
// counts below zero are accounting bugs.
func (h *CountHist) Add(v int) {
	if v < 0 {
		panic("stats: negative count sample")
	}
	for v >= len(h.counts) {
		h.counts = append(h.counts, 0)
	}
	h.counts[v]++
	h.n++
}

// Max returns the largest recorded value, or 0 when empty.
func (h *CountHist) Max() int {
	for v := len(h.counts) - 1; v >= 0; v-- {
		if h.counts[v] > 0 {
			return v
		}
	}
	return 0
}

// String renders the histogram as "value:count" pairs, e.g. "1:34 2:5".
func (h *CountHist) String() string {
	if h.n == 0 {
		return "(empty)"
	}
	var parts []string
	for v, c := range h.counts {
		if c > 0 {
			parts = append(parts, fmt.Sprintf("%d:%d", v, c))
		}
	}
	return strings.Join(parts, " ")
}

// RAS aggregates reliability/availability/serviceability events over one
// simulation run: what the fault injector fired and how each layer
// recovered. Counters are grouped by fault class; every recovery path in
// the stack increments exactly one "handled" counter so the table always
// balances against the injected totals.
type RAS struct {
	// Flash read path: transient ECC failures and the read-retry ladder.
	ReadFaults  int64      // reads whose first sense failed the ECC check
	ReadRetries int64      // total re-sense attempts across all ladders
	ReadRelays  int64      // reads escalated to the controller's strong ECC
	RetryLadder *CountHist // retries needed per faulted read

	// Flash write/erase path: permanent failures and FTL retirement.
	ProgramFails  int64 // program operations that failed status check
	EraseFails    int64 // erase operations that failed status check
	BlocksRetired int64 // blocks permanently removed from the free pool
	WriteRemaps   int64 // in-flight host writes remapped to a fresh block
	GCCopyRetries int64 // GC copies redirected after a destination failure

	// Interconnect: Omnibus control-plane and v-channel faults.
	OnDieECCFallbacks int64 // direct copies relayed for strong ECC
	GrantDrops        int64 // request/grant exchanges that timed out
	GrantRetries      int64 // arbitration retries after a grant timeout
	CopyFailovers     int64 // copies relayed after the grant ladder gave up
	DeadVCopies       int64 // copies relayed because the v-channel is dead
	DegradedReturns   int64 // transfers forced onto h by a dead v-channel

	retiredByChip map[uint64]int64
}

// NewRAS returns zeroed counters.
func NewRAS() *RAS {
	return &RAS{
		RetryLadder:   NewCountHist(),
		retiredByChip: make(map[uint64]int64),
	}
}

// RecordRetirement counts one retired block against its chip.
func (r *RAS) RecordRetirement(chip uint64) {
	r.BlocksRetired++
	r.retiredByChip[chip]++
}

// RetirementHist returns the distribution of retired blocks per chip that
// retired at least one block.
func (r *RAS) RetirementHist() *CountHist {
	h := NewCountHist()
	for _, n := range r.retiredByChip {
		h.Add(int(n))
	}
	return h
}

// TotalFaults returns the number of injected fault events across classes.
func (r *RAS) TotalFaults() int64 {
	return r.ReadFaults + r.ProgramFails + r.EraseFails +
		r.OnDieECCFallbacks + r.GrantDrops + r.DeadVCopies
}

// Rows returns (label, value) pairs for every counter in a fixed order,
// the canonical form reports and determinism tests consume.
func (r *RAS) Rows() [][2]string {
	n := func(v int64) string { return fmt.Sprint(v) }
	rows := [][2]string{
		{"read ECC faults", n(r.ReadFaults)},
		{"read retries", n(r.ReadRetries)},
		{"read strong-ECC relays", n(r.ReadRelays)},
		{"retry ladder", r.RetryLadder.String()},
		{"program fails", n(r.ProgramFails)},
		{"erase fails", n(r.EraseFails)},
		{"blocks retired", n(r.BlocksRetired)},
		{"retired per chip", r.RetirementHist().String()},
		{"write remaps", n(r.WriteRemaps)},
		{"GC copy retries", n(r.GCCopyRetries)},
		{"on-die ECC fallbacks", n(r.OnDieECCFallbacks)},
		{"grant drops", n(r.GrantDrops)},
		{"grant retries", n(r.GrantRetries)},
		{"copy failovers", n(r.CopyFailovers)},
		{"dead-v copies relayed", n(r.DeadVCopies)},
		{"degraded h returns", n(r.DegradedReturns)},
	}
	return rows
}

// String renders every counter on one line, deterministically — the form
// the fault-determinism tests compare across runs.
func (r *RAS) String() string {
	var parts []string
	for _, row := range r.Rows() {
		parts = append(parts, row[0]+"="+row[1])
	}
	// Per-chip retirement detail, sorted for determinism.
	chips := make([]uint64, 0, len(r.retiredByChip))
	for c := range r.retiredByChip {
		chips = append(chips, c)
	}
	sort.Slice(chips, func(i, j int) bool { return chips[i] < chips[j] })
	for _, c := range chips {
		parts = append(parts, fmt.Sprintf("chip%d=%d", c, r.retiredByChip[c]))
	}
	return strings.Join(parts, " ")
}
