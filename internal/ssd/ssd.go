// Package ssd assembles complete simulated SSDs: the Table II
// configuration, the Table III architecture matrix (baseSSD, pSSD, pnSSD,
// pnSSD+split, and the two NoSSD mesh variants), and a one-call
// constructor that wires engine, flash grid, SoC, fabric, FTL, and host
// together. This is the public entry point the examples, the experiment
// runners, and the benchmarks build on.
package ssd

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bus"
	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Arch selects one of the evaluated SSD architectures (Table III).
type Arch int

// Architectures.
const (
	ArchBase       Arch = iota // conventional SSD: dedicated signaling, 8-bit bus
	ArchNoSSDPin               // Network-on-SSD, pin-constrained 2-bit mesh links
	ArchNoSSDFree              // Network-on-SSD, unconstrained 8-bit mesh links
	ArchPSSD                   // packetized SSD: 16-bit packetized bus (Sec IV)
	ArchPnSSD                  // pSSD + Omnibus topology (Sec V)
	ArchPnSSDSplit             // pnSSD with split page transfers (Sec V-C)
)

// Archs lists every architecture in Table III order.
var Archs = []Arch{ArchBase, ArchNoSSDPin, ArchNoSSDFree, ArchPSSD, ArchPnSSD, ArchPnSSDSplit}

// archFlags are the command-line names of Archs, index for index.
var archFlags = []string{"base", "nossd-pin", "nossd-free", "pssd", "pnssd", "pnssd+split"}

// ParseArch resolves a command-line architecture name, ignoring case
// and surrounding space: base, nossd-pin, nossd-free, pssd, pnssd, or
// pnssd+split.
func ParseArch(name string) (Arch, error) {
	for i, flag := range archFlags {
		if strings.EqualFold(strings.TrimSpace(name), flag) {
			return Archs[i], nil
		}
	}
	return 0, fmt.Errorf("unknown architecture %q", name)
}

// String returns the paper's acronym.
func (a Arch) String() string {
	switch a {
	case ArchBase:
		return "baseSSD"
	case ArchNoSSDPin:
		return "NoSSD(pin-constraint)"
	case ArchNoSSDFree:
		return "NoSSD(no constraint)"
	case ArchPSSD:
		return "pSSD"
	case ArchPnSSD:
		return "pnSSD"
	case ArchPnSSDSplit:
		return "pnSSD(+split)"
	default:
		return fmt.Sprintf("arch(%d)", int(a))
	}
}

// Describe returns the Table III description.
func (a Arch) Describe() string {
	switch a {
	case ArchBase:
		return "Conventional SSD"
	case ArchNoSSDPin:
		return "Network-on-SSD with 2-bit channel on mesh"
	case ArchNoSSDFree:
		return "Network-on-SSD with 8-bit channel on mesh"
	case ArchPSSD:
		return "Packetized SSD (Sec IV)"
	case ArchPnSSD:
		return "pSSD with Omnibus topology (Sec V)"
	case ArchPnSSDSplit:
		return "Split technique applied on pnSSD"
	default:
		return "unknown"
	}
}

// Config is the simulation configuration; DefaultConfig reproduces Table
// II and ScaledConfig shrinks per-plane block counts for fast tests and
// benches while preserving every ratio the experiments depend on.
type Config struct {
	Channels int
	Ways     int
	Geometry flash.Geometry
	Timing   flash.Timing
	// BusMTps is the flash channel transfer rate (Table II: 1000 MT/s).
	BusMTps int
	// FTL carries allocation policy and GC settings, and FTL.Map, when
	// non-nil, turns on the FMMU-style demand-paged map unit (a bounded
	// DRAM cache over an on-flash map); nil keeps the whole map in DRAM.
	FTL ftl.Config
	// LogicalUtilization is the fraction of raw capacity exported as LPNs
	// (the rest is over-provisioning).
	LogicalUtilization float64
	// Fault, when non-nil, enables deterministic fault injection: one
	// shared injector is threaded through every chip, the FTL, and the
	// channel fabric, whose v-channels and control plane (pnSSD only)
	// draw interconnect faults.
	Fault *fault.Config
	// Trace, when non-nil, enables the tracing subsystem: a recorder is
	// attached to every bus channel, flash die, SoC resource, and the NVMe
	// link, and the host/FTL/fabric layers emit lifecycle spans. Nil (the
	// default) leaves every hook detached, so the simulation is
	// bit-identical to a build without tracing.
	Trace *trace.Config
	// Check, when non-nil, enables the invariant checker: an observer is
	// attached alongside tracing on every bus channel, flash die, SoC
	// resource, and the NVMe link, the FTL reports page commits, and Run
	// verifies drain-time invariants. Nil (the default) leaves every hook
	// detached, so the simulation is bit-identical to a build without
	// checking.
	Check *check.Config
	// Frontend, when non-nil, builds a multi-tenant NVMe front end over
	// the host: one submission/completion queue pair per tenant with the
	// configured arbiter deciding dispatch order. Nil (the default) leaves
	// the single-queue Host as the only entry point.
	Frontend *host.FrontendConfig
	// Telemetry, when non-nil, enables the time-series engine: a
	// collector samples windowed host throughput/latency, GC activity,
	// Omnibus grant wait, per-tenant queue depth, and RAS events, and
	// every request carries a latency attribution decomposing its
	// end-to-end latency into phases. Nil (the default) leaves every
	// hook detached, so the simulation is bit-identical to a build
	// without telemetry.
	Telemetry *telemetry.Config
	// Scheduler is the controller's command scheduling policy. The zero
	// value, controller.SchedFIFO, issues in arrival order and is byte-
	// identical to a build without the scheduling layer;
	// controller.SchedConflict (Venice-style conflict-aware path
	// reservation) and controller.SchedOOO (Sprinkler-style out-of-order
	// die-level reordering) interpose controller.SchedFabric between the
	// FTL and the fabric.
	Scheduler controller.SchedPolicy
}

// DefaultConfig returns the paper's Table II parameters: 8 channels, 8
// ways, 1 die, 4 planes, 1024 blocks, 512 pages, 16 KB pages, ULL flash,
// 1000 MT/s bus.
func DefaultConfig() Config {
	return Config{
		Channels:           8,
		Ways:               8,
		Geometry:           flash.Geometry{Planes: 4, BlocksPerPlane: 1024, PagesPerBlock: 512, PageSize: 16384},
		Timing:             flash.ULLTiming(),
		BusMTps:            1000,
		FTL:                ftl.DefaultConfig(),
		LogicalUtilization: 0.875,
	}
}

// ScaledConfig returns Table II with the per-plane block count and pages
// per block reduced so whole-device experiments run in seconds. Channel
// count, way count, plane count, page size, bus rate, and flash timing —
// everything that shapes the interconnect results — are untouched.
func ScaledConfig() Config {
	c := DefaultConfig()
	c.Geometry.BlocksPerPlane = 16
	c.Geometry.PagesPerBlock = 32
	return c
}

// Validate reports the first reason New would refuse c, or nil. It is
// the one check of a device configuration: the geometry, grid, bus rate,
// utilization and scheduler here, the FTL's rules (the int32 page bound,
// a logical capacity in (0, raw), the SpGC group, the map unit in
// FTL.Map) through ftl.Config.Validate, then the front end and the
// fault injector.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.Channels <= 0 || c.Ways <= 0 || c.BusMTps <= 0 {
		return fmt.Errorf("ssd: invalid config %+v", c)
	}
	if !(c.LogicalUtilization > 0 && c.LogicalUtilization < 1) {
		return fmt.Errorf("ssd: LogicalUtilization %v must be in (0,1)", c.LogicalUtilization)
	}
	if c.Scheduler < 0 || int(c.Scheduler) >= len(controller.SchedPolicyNames()) {
		return fmt.Errorf("ssd: unknown scheduler policy %v (want fifo, conflict, or ooo)", c.Scheduler)
	}
	if err := c.FTL.Validate(c.Channels, c.Ways, c.Geometry, c.LogicalPages()); err != nil {
		return err
	}
	if c.Frontend != nil {
		if err := c.Frontend.Validate(); err != nil {
			return err
		}
	}
	if c.Fault != nil {
		if err := c.Fault.Validate(); err != nil {
			return err
		}
		numV := min(c.Channels, c.Ways)
		for _, v := range c.Fault.DeadVChannels {
			if v >= numV {
				return fmt.Errorf("ssd: dead v-channel %d outside [0,%d)", v, numV)
			}
		}
	}
	return nil
}

// RawPages returns the device's physical page count.
func (c Config) RawPages() int64 {
	return int64(c.Channels) * int64(c.Ways) * int64(c.Geometry.PagesPerChip())
}

// LogicalPages returns the exported LPN count.
func (c Config) LogicalPages() int64 {
	return int64(float64(c.RawPages()) * c.LogicalUtilization)
}

// ChurnLPNs returns, in order, the LPNs Precondition(churn, seed)
// overwrites on a device of c: ⌊footprint·churn⌋ of them, capped at half
// the free headroom, drawn uniformly from the footprint by a generator
// seeded with seed. Churn consumes free pages one for one; the cap leaves
// the device a working free pool, since GC needs erased blocks for copy
// destinations and the host keeps writing while rounds are in flight.
func (c Config) ChurnLPNs(churn float64, seed int64) []int64 {
	foot := c.LogicalPages()
	n := min(int64(float64(foot)*churn), (c.RawPages()-foot)/2)
	if n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	lpns := make([]int64, n)
	for i := range lpns {
		lpns[i] = rng.Int63n(foot)
	}
	return lpns
}

// Structure is what a device's objects are built to, and so what
// SSD.Reset cannot change: the chip grid, its geometry and timing, the
// bus rate, the scheduling layer, and the map unit with the logical
// capacity it maps. Every other Config field is per run. Structures are
// comparable, so they key a pool of devices.
type Structure struct {
	Channels, Ways int
	Geometry       flash.Geometry
	Timing         flash.Timing
	BusMTps        int
	Scheduler      controller.SchedPolicy
	// Map is the map unit's configuration when Mapped; the unit sizes its
	// directory for the logical capacity, so LogicalUtilization counts
	// only then.
	Map                ftl.MapConfig
	Mapped             bool
	LogicalUtilization float64
}

// Structure returns c's structure.
func (c Config) Structure() Structure {
	st := Structure{Channels: c.Channels, Ways: c.Ways, Geometry: c.Geometry, Timing: c.Timing, BusMTps: c.BusMTps, Scheduler: c.Scheduler}
	if c.FTL.Map != nil {
		st.Map, st.Mapped, st.LogicalUtilization = *c.FTL.Map, true, c.LogicalUtilization
	}
	return st
}

// totalFlashMBps is the aggregate baseline flash bus bandwidth used to
// provision SoC and NVMe resources (Table II's "x1" note).
func (c Config) totalFlashMBps() int { return c.Channels * c.BusMTps }

// SSD is one assembled device.
type SSD struct {
	Arch   Arch
	Config Config
	Engine *sim.Engine
	Grid   *controller.Grid
	Soc    *controller.Soc
	Fabric controller.Fabric
	FTL    *ftl.FTL
	Host   *host.Host
	// Frontend is the multi-tenant queue front end, nil unless
	// Config.Frontend was set.
	Frontend *host.Frontend
	// Faults is the shared injector, nil unless Config.Fault was set.
	Faults *fault.Injector
	// Tracer is the trace recorder, nil unless Config.Trace was set.
	Tracer *trace.Recorder
	// Checker is the invariant checker, nil unless Config.Check was set.
	Checker *check.Checker
	// Telemetry is the time-series collector, nil unless
	// Config.Telemetry was set.
	Telemetry *telemetry.Collector
	// Sched is the scheduling layer between FTL and fabric, nil unless
	// Config.Scheduler selected a non-FIFO policy. Fabric stays the
	// inner interconnect model in either case.
	Sched *controller.SchedFabric

	// probes is the observed-resource enumeration built once by build.
	probes []probe
}

// RAS returns the run's RAS counters, or nil when fault injection is off.
func (s *SSD) RAS() *stats.RAS { return s.Faults.RAS() }

// wireFaults builds the injector from cfg.Fault (nil when absent) and
// attaches it to every chip, the FTL, and a channel fabric. Only pnSSD's
// v-channels and grant exchange draw interconnect faults; on baseSSD and
// pSSD (no v-channels) and on the mesh only the flash- and FTL-level
// classes apply.
func wireFaults(cfg Config, grid *controller.Grid, fab controller.Fabric, f *ftl.FTL) *fault.Injector {
	if cfg.Fault == nil {
		return nil
	}
	inj := fault.New(*cfg.Fault)
	grid.ForEach(func(id controller.ChipID, c *flash.Chip) {
		c.SetFaults(inj, uint64(id.Channel*cfg.Ways+id.Way))
	})
	f.SetFaults(inj)
	if ob, ok := fab.(*controller.OmnibusFabric); ok {
		ob.SetFaultInjector(inj)
	}
	return inj
}

// probe is one attach point for passive resource observers: the
// resources behind it by name, their trace kind, the AddObserver
// forwarder, and the drain-time idle probe.
type probe struct {
	kind  string
	names []string // the SoC attaches its system bus and DRAM together
	obs   interface{ AddObserver(sim.ResourceObserver) }
	// idle is nil where a named drain check covers the resources (the
	// SoC and the NVMe link).
	idle interface {
		Busy() bool
		QueueLen() int
	}
}

// probes enumerates the device's observed resources in display order:
// every h-channel, every v-channel (pnSSD), every chip die,
// the SoC, and the NVMe link. Mesh links have no per-row channel notion
// and stay unobserved. This one enumeration drives trace tracks, checker
// registration and idle watches, Buses, and the Fig 3 matrix, so a new
// observed resource is added here and nowhere else.
func probes(grid *controller.Grid, fab controller.Fabric, soc *controller.Soc, h *host.Host) []probe {
	// One slab holds every probe's names, each probe a window of it.
	n := grid.NumChips() + 2*grid.Channels + 2
	out := make([]probe, 0, n)
	slab := make([]string, 0, n+1)
	names := func(s ...string) []string {
		slab = append(slab, s...)
		return slab[len(slab)-len(s) : len(slab) : len(slab)]
	}
	addBus := func(c *bus.Channel, kind string) {
		out = append(out, probe{kind: kind, names: names(c.Name()), obs: c, idle: c})
	}
	if fb, ok := fab.(*controller.OmnibusFabric); ok {
		for ch := 0; ch < grid.Channels; ch++ {
			addBus(fb.HChannel(ch), trace.KindHChannel)
		}
		for i := 0; i < fb.NumVChannels(); i++ {
			addBus(fb.VChannel(i*fb.ColumnsPerVChannel()), trace.KindVChannel)
		}
	}
	grid.ForEach(func(_ controller.ChipID, c *flash.Chip) {
		out = append(out, probe{kind: trace.KindChip, names: names(c.DieName()), obs: c, idle: c})
	})
	return append(out,
		probe{kind: trace.KindSoc, names: names("sysbus", "dram"), obs: soc},
		probe{kind: trace.KindHost, names: names(h.NvmeName()), obs: h})
}

// wireTrace builds the recorder from cfg.Trace (nil when absent),
// registers one track per probed resource — in probe order, so every bus
// appears in the export even if idle — and attaches the observer and
// span hooks through every layer.
func wireTrace(cfg Config, eng *sim.Engine, ps []probe, fab controller.Fabric, f *ftl.FTL, h *host.Host) *trace.Recorder {
	if cfg.Trace == nil {
		return nil
	}
	rec := trace.New(eng)
	for _, p := range ps {
		for _, name := range p.names {
			rec.RegisterTrack(name, p.kind)
		}
		p.obs.AddObserver(rec)
	}
	if ob, ok := fab.(*controller.OmnibusFabric); ok {
		ob.SetTracer(rec)
	}
	h.SetTracer(rec)
	f.SetTracer(rec)
	return rec
}

// wireCheck builds the invariant checker from cfg.Check (nil when
// absent): it registers every probed resource with its kind, attaches
// the checker as an additional observer (tracing, if enabled, keeps its
// own and sees each callback first), hooks the FTL's page-commit sink
// and the channel fabric's copy-routing notification, and installs the
// drain-time leak and accounting checks Run verifies.
func wireCheck(cfg Config, eng *sim.Engine, ps []probe, grid *controller.Grid, fab controller.Fabric, f *ftl.FTL, h *host.Host, soc *controller.Soc, inj *fault.Injector) *check.Checker {
	if cfg.Check == nil {
		return nil
	}
	ck := check.New(eng)
	for _, p := range ps {
		for _, name := range p.names {
			ck.RegisterResource(name, p.kind)
			if q := p.idle; q != nil {
				ck.WatchIdle(name, func() (bool, int) { return q.Busy(), q.QueueLen() })
			}
		}
		p.obs.AddObserver(ck)
	}
	if ob, ok := fab.(*controller.OmnibusFabric); ok {
		ck.WatchCopies(ob.ColumnsPerVChannel())
		ob.SetChecker(ck)
	}
	ck.AddDrainCheck("soc-idle", func() error {
		if !soc.Idle() {
			return fmt.Errorf("SoC resources busy or queued after drain")
		}
		return nil
	})
	ck.AddDrainCheck("nvme-idle", func() error {
		if !h.NvmeIdle() {
			return fmt.Errorf("NVMe link busy or queued after drain")
		}
		return nil
	})
	if f.MapEnabled() {
		ck.WatchMap(f.MapCacheEntries())
		ck.SetMapProbe(f.MapFlashToken)
		f.SetMapChecker(ck)
		ck.AddDrainCheck("map-idle", f.MapIdle)
	}
	f.SetChecker(ck)
	ck.SetContentProbe(f.Content)
	ck.AddDrainCheck("engine-drained", func() error {
		if n := eng.Pending(); n != 0 {
			return fmt.Errorf("%d events still pending", n)
		}
		return nil
	})
	ck.AddDrainCheck("ftl-drained", func() error {
		switch {
		case f.Outstanding() != 0:
			return fmt.Errorf("%d host ops outstanding", f.Outstanding())
		case f.InflightWriteLPNs() != 0:
			return fmt.Errorf("%d LPNs with writes in flight", f.InflightWriteLPNs())
		case f.StalledWrites() != 0:
			return fmt.Errorf("%d writes stalled on space", f.StalledWrites())
		case f.GCActive():
			return fmt.Errorf("GC round still active")
		}
		return nil
	})
	ck.AddDrainCheck("ftl-consistency", f.CheckConsistency)
	ck.AddDrainCheck("vpage-leaks", func() error {
		var err error
		grid.ForEach(func(id controller.ChipID, c *flash.Chip) {
			if err == nil && c.VPagesHeld() > 0 {
				err = fmt.Errorf("chip %v holds %d V-page registers", id, c.VPagesHeld())
			}
		})
		return err
	})
	if inj != nil {
		ck.AddDrainCheck("ras-balance", check.RASBalance(inj))
	}
	return ck
}

// wireTelemetry builds the collector from cfg.Telemetry (nil when
// absent) and attaches it to the host (attribution + windowed series),
// the FTL (GC activity, stall events), and a channel fabric's grant
// arbitration (pnSSD only). The collector is purely passive — it never
// schedules events — so an instrumented run executes the same event
// sequence.
func wireTelemetry(cfg Config, fab controller.Fabric, f *ftl.FTL, h *host.Host) *telemetry.Collector {
	if cfg.Telemetry == nil {
		return nil
	}
	col := telemetry.New()
	h.SetTelemetry(col)
	f.SetTelemetry(col)
	if f.MapEnabled() {
		col.EnableMapPhase()
	}
	if ob, ok := fab.(*controller.OmnibusFabric); ok {
		ob.SetTelemetry(col)
	}
	return col
}

// wireFrontend builds the multi-tenant front end from cfg.Frontend (nil
// when absent) and hooks it into tracing (one span track per tenant)
// and the invariant checker (per-queue depth ledger, arbiter fairness
// bound, per-tenant conservation, and a drained-front-end check).
func wireFrontend(cfg Config, h *host.Host, rec *trace.Recorder, ck *check.Checker, col *telemetry.Collector) *host.Frontend {
	if cfg.Frontend == nil {
		return nil
	}
	fe, err := host.NewFrontend(h, *cfg.Frontend)
	if err != nil {
		panic(err) // cfg.Validate already vetted the frontend config
	}
	if rec.Enabled() {
		fe.SetTracer(rec)
	}
	if ck.Enabled() {
		ck.WatchTenants(fe.NumTenants(), fe.StarvationBound())
		fe.SetObserver(ck)
		ck.AddDrainCheck("frontend-drained", func() error {
			if !fe.Drained() {
				return fmt.Errorf("front end has queued or inflight commands after drain (inflight=%d)", fe.Inflight())
			}
			return nil
		})
	}
	if col.Enabled() {
		fe.SetTelemetry(col)
	}
	return fe
}

// wrapSched interposes the scheduling layer between FTL and fabric when
// cfg.Scheduler selects a non-FIFO policy. The FTL issues through the
// returned Fabric; everything else (tracing, checking, telemetry, bus
// accessors) keeps seeing the inner fabric, whose event behavior the
// wrapper only re-sequences. FIFO (the default) returns the fabric
// unwrapped, so the default build is byte-identical to one without the
// scheduling layer compiled in.
func wrapSched(cfg Config, fab controller.Fabric) (controller.Fabric, *controller.SchedFabric) {
	if cfg.Scheduler == controller.SchedFIFO {
		return fab, nil
	}
	s := controller.NewSchedFabric(fab, cfg.Scheduler)
	return s, s
}

// wireSchedCheck attaches the scheduling-layer invariants: the
// reservation ledger and reorder-window rules audit every decision, and
// a drain check asserts the scheduler holds nothing at end of run.
func wireSchedCheck(sched *controller.SchedFabric, ck *check.Checker) {
	if sched == nil || !ck.Enabled() {
		return
	}
	ck.WatchSched(sched.Window(), sched.ReorderBound())
	sched.SetChecker(ck)
	ck.AddDrainCheck("sched-quiesced", func() error {
		if !sched.Quiesced() {
			return fmt.Errorf("scheduler still holds work after drain")
		}
		return nil
	})
}

// FabricFunc builds the interconnect over an assembled grid and SoC.
type FabricFunc func(eng *sim.Engine, grid *controller.Grid, soc *controller.Soc, pageSize int) controller.Fabric

// New builds an SSD of the given architecture. The SoC and NVMe
// bandwidths are provisioned at the architecture's total flash-channel
// bandwidth so they never bottleneck the interconnect under study
// (Sec VII-A). A cfg that fails Validate panics with its error; callers
// that take a configuration from outside the program call Validate
// first.
func New(arch Arch, cfg Config) *SSD {
	// Controller-side bandwidth multiplier: packetized architectures double
	// the per-controller pin bandwidth (16 bits vs 8).
	mult := 1
	switch arch {
	case ArchPSSD, ArchPnSSD, ArchPnSSDSplit, ArchNoSSDFree:
		mult = 2
	}
	return build(arch, cfg, cfg.totalFlashMBps()*mult, func(eng *sim.Engine, grid *controller.Grid, soc *controller.Soc, _ int) controller.Fabric {
		return makeFabric(arch, eng, grid, soc, cfg)
	})
}

// NewCustom builds an SSD whose fabric comes from the supplied
// constructor — the hook the ablation studies use to vary channel widths,
// routing policy, or control-plane latency while keeping the rest of the
// stack identical. The arch parameter only labels the result.
func NewCustom(arch Arch, cfg Config, mk FabricFunc) *SSD {
	return build(arch, cfg, cfg.totalFlashMBps()*2, mk)
}

// build validates cfg and assembles the device: engine, chip grid, SoC
// provisioned at socMBps, the fabric from mk, the optional scheduling
// layer, FTL, host, and every opt-in instrument.
func build(arch Arch, cfg Config, socMBps int, mk FabricFunc) *SSD {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	eng := sim.NewEngine()
	grid := controller.NewGrid(eng, cfg.Channels, cfg.Ways, cfg.Geometry, cfg.Timing)
	soc := controller.NewSoc(eng, socMBps, socMBps)
	fab := mk(eng, grid, soc, cfg.Geometry.PageSize)
	ftlFab, sched := wrapSched(cfg, fab)
	f := ftl.New(eng, ftlFab, cfg.FTL, cfg.LogicalPages())
	h := host.New(eng, f, cfg.Geometry.PageSize, socMBps)
	s := &SSD{Arch: arch, Config: cfg, Engine: eng, Grid: grid, Soc: soc, Fabric: fab, FTL: f, Host: h, Sched: sched, probes: probes(grid, fab, soc, h)}
	s.wire()
	return s
}

// wire builds every opt-in instrument Config asks for (fault injector,
// tracer, checker, telemetry collector, front end) and attaches it to
// the core that build assembled or Reset returned to as-built.
func (s *SSD) wire() {
	cfg := s.Config
	s.Faults = wireFaults(cfg, s.Grid, s.Fabric, s.FTL)
	s.Tracer = wireTrace(cfg, s.Engine, s.probes, s.Fabric, s.FTL, s.Host)
	s.Checker = wireCheck(cfg, s.Engine, s.probes, s.Grid, s.Fabric, s.FTL, s.Host, s.Soc, s.Faults)
	wireSchedCheck(s.Sched, s.Checker)
	s.Telemetry = wireTelemetry(cfg, s.Fabric, s.FTL, s.Host)
	s.Frontend = wireFrontend(cfg, s.Host, s.Tracer, s.Checker, s.Telemetry)
}

// Precondition puts an as-built device in the state a measured run starts
// from, in no simulated time: Host.Warmup installs the whole logical
// footprint, then every LPN of Config.ChurnLPNs(churn, seed) is
// overwritten at version 1, so blocks carry the invalid pages GC
// collects. Churn 0 only installs the footprint.
func (s *SSD) Precondition(churn float64, seed int64) {
	s.Host.Warmup(s.Config.LogicalPages())
	for _, lpn := range s.Config.ChurnLPNs(churn, seed) {
		s.FTL.Reinstall(lpn, ftl.TokenFor(lpn, 1))
	}
}

// Reset returns a drained device to the state New(s.Arch, cfg) leaves
// it in, so that one device can serve every run of its structure. cfg
// must have the device's Structure and pass Validate; any other panics,
// as a device with events pending or requests in flight does. The rest
// of cfg is per run: the FTL's allocation policy, GC mode, victim
// policy, threshold and group fraction, the logical utilization without
// a map unit, and the opt-in instruments. Every layer keeps its objects,
// its slabs and its recycled operation records, and zeroes the rest: the
// clock and event queue, every resource, the chips, the fabric, the
// scheduling layer, the FTL (configured for cfg, its map unit re-carved
// and re-installed) and the host's metrics and versions. The opt-in
// instruments are not reset but built again from cfg by the same code
// New runs, so an instrument cannot carry anything from the last run.
func (s *SSD) Reset(cfg Config) {
	if n, q := s.Engine.Pending(), s.Host.InFlight(); n != 0 || q != 0 || (s.Frontend != nil && !s.Frontend.Drained()) {
		panic(fmt.Sprintf("ssd: reset of a device with %d events pending and %d requests in flight", n, q))
	}
	if have, want := s.Config.Structure(), cfg.Structure(); have != want {
		panic(fmt.Sprintf("ssd: reset to structure %+v of a device built as %+v", want, have))
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s.Config = cfg
	s.Engine.Reset()
	s.Grid.Reset()
	s.Soc.Reset()
	s.Fabric.Reset()
	if s.Sched != nil {
		s.Sched.Reset()
	}
	s.FTL.Reset(cfg.FTL, cfg.LogicalPages())
	s.Host.Reset()
	s.wire()
}

func makeFabric(arch Arch, eng *sim.Engine, grid *controller.Grid, soc *controller.Soc, cfg Config) controller.Fabric {
	var fab controller.Fabric
	ps := cfg.Geometry.PageSize
	switch arch {
	case ArchBase:
		fab = controller.NewOmnibusFabric(eng, arch.String(), grid, soc, ps, 8, 0, cfg.BusMTps, false, false)
	case ArchPSSD:
		fab = controller.NewOmnibusFabric(eng, arch.String(), grid, soc, ps, 16, 0, cfg.BusMTps, true, false)
	case ArchPnSSD:
		fab = controller.NewOmnibusFabric(eng, arch.String(), grid, soc, ps, 8, 8, cfg.BusMTps, true, false)
	case ArchPnSSDSplit:
		fab = controller.NewOmnibusFabric(eng, arch.String(), grid, soc, ps, 8, 8, cfg.BusMTps, true, true)
	case ArchNoSSDPin:
		fab = controller.NewMeshFabric(eng, arch.String(), grid, soc, ps, 2, cfg.BusMTps)
	case ArchNoSSDFree:
		fab = controller.NewMeshFabric(eng, arch.String(), grid, soc, ps, 8, cfg.BusMTps)
	default:
		panic(fmt.Sprintf("ssd: unknown architecture %d", int(arch)))
	}
	return fab
}

// AttachChannelUtil attaches a per-bus utilization matrix in
// sim.SeriesWindow windows, one row per bus in Buses order (h-channels,
// then v-channels), each fed as an ordinary resource observer, and
// returns it — the instrument behind Fig 3 and pssdsim's heat table.
// Mesh fabrics have no channel notion and return nil.
func (s *SSD) AttachChannelUtil() *stats.UtilMatrix {
	buses := s.Buses()
	if buses == nil {
		return nil
	}
	m := stats.NewUtilMatrix(len(buses), sim.SeriesWindow)
	for i, b := range buses {
		b.Channel.AddObserver(m.Observer(i))
	}
	return m
}

// Drain runs the simulation to completion and returns the final time,
// without verifying invariants (Run does both).
func (s *SSD) Drain() sim.Time { return s.Engine.Run() }

// Run drains the event queue and returns the final simulation time. With
// the invariant checker enabled, every drain is verified and a violation
// panics — turning each experiment run into a correctness oracle. Use
// Drain plus VerifyInvariants to inspect violations without panicking.
func (s *SSD) Run() sim.Time {
	t := s.Drain()
	if s.Checker.Enabled() {
		if err := s.Checker.Verify(); err != nil {
			panic(err)
		}
	}
	return t
}

// VerifyInvariants evaluates the checker's drain-time invariants and
// returns the accumulated violations as an error, or nil when clean (or
// when checking is disabled). Idempotent.
func (s *SSD) VerifyInvariants() error { return s.Checker.Verify() }

// Metrics returns the host-side I/O metrics.
func (s *SSD) Metrics() *stats.IOMetrics { return s.Host.Metrics() }
