// Package array composes N simulated SSDs into a rack-scale
// erasure-coded tier: m data + k parity shards per stripe, rotated
// RAID-style across the m+k devices of each group, with spare devices a
// background rebuild re-protects onto after a whole-device failure.
//
// The design splits the array into two deterministic levels. The
// cluster router plans everything up front from (configuration, failure
// schedule, foreground trace) alone — shard placement, degraded-read
// reconstruction, retry/backoff against transient outages, write
// redirection onto spares, and the throttled rebuild schedule — without
// ever consulting a simulated device latency. Each device then replays
// its planned trace as a fully independent simulation (its own engine,
// FTL, GC, interconnect), so devices run in parallel and results are
// byte-identical at any worker count. Array-level request latency is
// reassembled arithmetically: a request completes when the last of its
// shard operations completes, plus the router's own overheads.
package array

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/telemetry"
)

// The router's timings.
const (
	// RouteLatency is the router's fixed per-request overhead.
	RouteLatency = 2 * sim.Microsecond
	// ReconstructLatency is the decode cost added after the last of the
	// m surviving shards arrives on a degraded read.
	ReconstructLatency = 10 * sim.Microsecond
	// DetectLatency is how long a permanent kill stays undetected: reads
	// in the window burn the retry ladder before reconstructing; after
	// it the router reconstructs (or redirects) immediately.
	DetectLatency = 100 * sim.Microsecond
	// RetryMax and RetryBackoff bound the per-read retry ladder against
	// an unresponsive device: attempt i waits RetryBackoff<<(i-1), and
	// an exhausted ladder falls back to reconstruction.
	RetryMax     = 3
	RetryBackoff = 10 * sim.Microsecond
)

// Config describes one erasure-coded array.
type Config struct {
	// Arch and Device configure every member SSD identically. A
	// non-nil Device.Check turns on each member's invariant checker and
	// the array-level checks (ack discipline, stripe conservation,
	// rebuild completeness); a non-nil Device.Trace gives each member
	// its own recorder.
	Arch   ssd.Arch
	Device ssd.Config

	// Data and Parity are m and k: each stripe spreads m data shards and
	// k parity shards over the m+k devices of its group, rotating the
	// parity lanes RAID-5-style so no device is a dedicated parity disk.
	Data, Parity int
	// Groups is the number of independent m+k groups.
	Groups int
	// Spares is the number of hot spares appended after the groups.
	// Kills are mapped to spares in failure order; a kill beyond the
	// spare supply leaves its group unprotected (writes to the dead
	// shard are lost, reads reconstruct forever).
	Spares int

	// Seed drives churn placement and any seed-derived failure schedule.
	Seed int64
	// ChurnFraction pre-invalidates this fraction of each device's
	// logical space (bounded by free headroom) so GC has work to do.
	ChurnFraction float64

	// Failures is the whole-device failure schedule: permanent kills and
	// transient outages, applied at the array router. Devices themselves
	// keep simulating; the router just stops (or defers) routing to them.
	Failures []fault.DeviceEvent

	// RebuildPagesPerSec throttles the background rebuild scheduler;
	// zero disables rebuild (spares still absorb redirected writes).
	RebuildPagesPerSec int

	// Telemetry, when set, produces an array-level time-series summary:
	// windowed throughput/latency over the reassembled request stream
	// plus rebuild progress per window and rebuild start/end marks. The
	// series are computed arithmetically from joined per-device
	// completion times, so they are byte-identical at any parallelism.
	Telemetry *telemetry.Config
}

// Width returns the shard count per stripe, m+k.
func (c Config) Width() int { return c.Data + c.Parity }

// Devices returns the total device count, groups plus spares.
func (c Config) Devices() int { return c.Groups*c.Width() + c.Spares }

// StripesPerGroup returns how many stripes one group holds: one per
// device logical page, since every member contributes one shard (at its
// own LPN equal to the stripe index) to every stripe of its group.
func (c Config) StripesPerGroup() int64 { return c.Device.LogicalPages() }

// LogicalPages returns the array's exported LPN count: m data shards
// per stripe across every group.
func (c Config) LogicalPages() int64 {
	return int64(c.Groups) * c.StripesPerGroup() * int64(c.Data)
}

// Validate reports the first malformed setting, the member device's
// included, or nil.
func (c Config) Validate() error {
	if err := c.Device.Validate(); err != nil {
		return err
	}
	if c.Data < 1 || c.Parity < 1 {
		return fmt.Errorf("array: need m>=1 data and k>=1 parity shards, got %d+%d", c.Data, c.Parity)
	}
	if c.Groups < 1 {
		return fmt.Errorf("array: need at least one group")
	}
	if c.Spares < 0 {
		return fmt.Errorf("array: negative spare count")
	}
	if c.RebuildPagesPerSec < 0 {
		return fmt.Errorf("array: negative rebuild rate")
	}
	coded := c.Groups * c.Width()
	for _, e := range c.Failures {
		if e.Device >= coded {
			return fmt.Errorf("array: failure event %v targets a spare or unknown device (coded devices: %d)", e, coded)
		}
		if err := e.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// shard is one placed shard: a device and the device-local LPN.
type shard struct {
	dev int
	lpn int64
}

// shardAt places lane `lane` (0..m-1 data, m..m+k-1 parity) of stripe t
// in group g: the rotation (lane+t) mod width walks parity around the
// group so load and rebuild work spread evenly.
func (c Config) shardAt(g int, t int64, lane int) shard {
	w := int64(c.Width())
	return shard{dev: g*c.Width() + int((int64(lane)+t)%w), lpn: t}
}

// laneOf inverts shardAt for a device's position within its group:
// which lane of stripe t lives on group-local device offset d.
func (c Config) laneOf(d int, t int64) int {
	w := int64(c.Width())
	return int((((int64(d) - t) % w) + w) % w)
}

// locate maps an array LPN to (group, stripe, data lane). Consecutive
// array LPNs fill consecutive data lanes of one stripe and then move to
// the next stripe, so sequential requests fan out across the group.
func (c Config) locate(a int64) (g int, t int64, lane int) {
	perGroup := c.StripesPerGroup() * int64(c.Data)
	g = int(a / perGroup)
	r := a % perGroup
	return g, r / int64(c.Data), int(r % int64(c.Data))
}
