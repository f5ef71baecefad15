package prop

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// ArrayCase is one randomized array configuration: a small erasure-coded
// cluster of generated devices plus a device-failure schedule. It is a
// separate dimension from Case — the device generator's draw sequence is
// frozen by the existing determinism tests, so the array dimension draws
// from its own stream.
type ArrayCase struct {
	Index int
	Seed  uint64
	Arch  ssd.Arch

	Planes  int
	Blocks  int
	Pages   int
	BusMTps int
	GCMode  ftl.GCMode

	Data, Parity int
	Groups       int

	// Exactly one failure mode per case, so the no-failed-reads property
	// stays provable: a kill never overlaps an outage on its survivors.
	Kill    bool     // one permanent device kill (with spare + rebuild)
	KillDev int      // coded device index
	KillAt  sim.Time // kill time
	Outages int      // transient windows when Kill is false

	Trace    string
	Requests int
}

// String renders the case for failure messages.
func (c ArrayCase) String() string {
	fail := fmt.Sprintf("outages=%d", c.Outages)
	if c.Kill {
		fail = fmt.Sprintf("kill dev%d@%v", c.KillDev, c.KillAt)
	}
	return fmt.Sprintf("array case %d seed=%#x %v geo=%d/%d/%d gc=%v %d+%d x%d %s %s x%d",
		c.Index, c.Seed, c.Arch, c.Planes, c.Blocks, c.Pages, c.GCMode,
		c.Data, c.Parity, c.Groups, fail, c.Trace, c.Requests)
}

// GenerateArray draws n array cases from the seed; the same (seed, n)
// always yields the same slice. The device space is deliberately tamer
// than Generate's — modest utilization, GC modes that drain — because
// the properties under test are the router's failure paths, not FTL
// feasibility edges (Generate already covers those per device).
func GenerateArray(seed uint64, n int) []ArrayCase {
	r := &rng{s: seed ^ 0xbb67ae8584caa73b}
	traces := workload.Names()
	gcModes := []ftl.GCMode{ftl.GCParallel, ftl.GCSpatial}
	archs := []ssd.Arch{ssd.ArchPnSSD, ssd.ArchPnSSDSplit, ssd.ArchPSSD}
	cases := make([]ArrayCase, n)
	for i := range cases {
		c := ArrayCase{
			Index:    i,
			Seed:     r.next(),
			Arch:     archs[r.intn(len(archs))],
			Planes:   pickInt(r, 1, 2),
			Blocks:   pickInt(r, 8, 12),
			Pages:    pickInt(r, 8, 16),
			BusMTps:  pickInt(r, 800, 1000),
			GCMode:   gcModes[r.intn(len(gcModes))],
			Data:     pickInt(r, 2, 3),
			Parity:   1,
			Groups:   pickInt(r, 1, 2),
			Trace:    traces[r.intn(len(traces))],
			Requests: 80 + 40*r.intn(3),
			Kill:     r.intn(2) == 1,
		}
		if c.Kill {
			c.KillDev = r.intn(c.Groups * (c.Data + c.Parity))
			c.KillAt = sim.Time(r.intn(2000)) * sim.Microsecond
		} else {
			c.Outages = 1 + r.intn(3)
		}
		cases[i] = c
	}
	return cases
}

// Config expands the case into a full array configuration with both the
// per-device and array-level checkers enabled.
func (c ArrayCase) Config() array.Config {
	dc := ssd.DefaultConfig()
	dc.Channels, dc.Ways = 2, 2
	dc.Geometry.Planes = c.Planes
	dc.Geometry.BlocksPerPlane = c.Blocks
	dc.Geometry.PagesPerBlock = c.Pages
	dc.Geometry.PageSize = 4096
	dc.BusMTps = c.BusMTps
	dc.FTL.GCMode = c.GCMode
	dc.LogicalUtilization = 0.5
	dc.Check = &check.Config{}

	cfg := array.Config{
		Arch:   c.Arch,
		Device: dc,
		Data:   c.Data, Parity: c.Parity,
		Groups: c.Groups,
		Spares: 1,
		Seed:   int64(c.Seed >> 2),
	}
	if c.Kill {
		cfg.Failures = []fault.DeviceEvent{{Device: c.KillDev, At: c.KillAt}}
		cfg.RebuildPagesPerSec = 200_000
	} else {
		coded := c.Groups * (c.Data + c.Parity)
		cfg.Failures = fault.RandomOutages(c.Seed, coded, c.Outages, 3*sim.Millisecond, 300*sim.Microsecond)
	}
	return cfg
}

// ArrayResult is one array case's outcome.
type ArrayResult struct {
	Case   ArrayCase
	Digest string // determinism witness
	Err    error
}

// RunArray executes one array case and asserts the failure-dimension
// properties: the run drains clean (zero array and device violations),
// every host request completes, and — the coding guarantee — no host
// read fails while failures stay within the parity budget.
func RunArray(c ArrayCase) ArrayResult {
	cfg := c.Config()
	tr, err := workload.Named(c.Trace, cfg.LogicalPages(), c.Requests, int64(c.Seed>>1))
	if err != nil {
		return ArrayResult{Case: c, Err: err}
	}
	// Devices fan out inside Run; each prop case runs them sequentially
	// so RunArrayAll can parallelize across cases instead.
	res := array.Run(cfg, tr.Requests, 1)
	out := ArrayResult{Case: c}
	if err := res.Err(); err != nil {
		out.Err = fmt.Errorf("%v: %w", c, err)
		return out
	}
	if got := res.Metrics.TotalRequests(); got != int64(len(tr.Requests)) {
		out.Err = fmt.Errorf("%v: recorded %d of %d requests", c, got, len(tr.Requests))
		return out
	}
	if res.RAS.FailedReads != 0 {
		out.Err = fmt.Errorf("%v: %d failed reads within the parity budget", c, res.RAS.FailedReads)
		return out
	}
	if c.Kill && res.RAS.RebuildPages+res.RAS.RebuildSkipped != cfg.StripesPerGroup() {
		out.Err = fmt.Errorf("%v: rebuild covered %d of %d stripes", c,
			res.RAS.RebuildPages+res.RAS.RebuildSkipped, cfg.StripesPerGroup())
		return out
	}
	out.Digest = fmt.Sprintf("%s|%v|%v|%v|%v",
		res.RAS, res.Metrics.MeanLatency(), res.Metrics.Combined().P99(), res.SimTime, res.RebuildTime)
	return out
}

// RunArrayAll executes the cases across workers; results (and digests)
// must not depend on the worker count.
func RunArrayAll(cases []ArrayCase, parallel int) []ArrayResult {
	label := func(i int) string { return cases[i].String() }
	return runner.MapLabeled(parallel, len(cases), label, func(i int) ArrayResult { return RunArray(cases[i]) })
}
