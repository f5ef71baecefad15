package controller

import (
	"fmt"
	"strconv"

	"repro/internal/bus"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// OmnibusFabric is the channel fabric of the paper's pSSD → pnSSD
// progression: one h-channel per grid row, plus — on pnSSD (Fig 9(c)) —
// one v-channel per column, with channel controller k driving both
// h-channel k and v-channel k.
//
//   - baseSSD is the fabric with dedicated 8-bit h-channels and no
//     v-channels; pSSD (Fig 9(a)) packetizes the h-channels to 16 bits.
//     Chips on one row share its channel for every command and every
//     byte, and all traffic funnels through the channel controller.
//   - pnSSD partitions the packetized 16-bit budget into an 8-bit
//     h-channel per row and an 8-bit v-channel per column. Data-plane
//     movement between chips happens on the v-channels; the control plane
//     runs between controllers over the SoC interconnect with the
//     source/destination/intermediate roles of Fig 11.
//
// With v-channels, I/O reads return over whichever of the chip's two
// buses is less loaded (the paper's greedy adaptive choice), or over both
// at once when split transfers are enabled, and GC page copies between
// chips in the same column use only that column's v-channel — the
// property Spatial GC exploits. Without them (or with the column's
// v-channel dead), everything moves over the h-channels.
type OmnibusFabric struct {
	eng      *sim.Engine
	name     string
	grid     *Grid
	soc      *Soc
	pageSize int
	split    bool

	h      []bus.Channel
	v      []bus.Channel
	hIface []bus.Iface
	vIface []bus.Packetized

	// colsPerV is how many adjacent way-columns share one v-channel (0
	// when there are none). It is 1 in the square organization; in a wide
	// organization (more ways than channels) each controller's single
	// v-channel must interconnect Ways/Channels columns (Sec V-E). In a
	// tall organization (more channels than ways) there is one v-channel
	// per way and the surplus controllers drive only their h-channel.
	colsPerV int

	// route selects the I/O path policy; GC copies always use v-channels.
	route RoutePolicy

	// faults supplies deterministic interconnect fault draws: on-die ECC
	// fallbacks for direct copies (Sec VIII hybrid ECC), lost
	// request/grant exchanges, and whole-v-channel kill-switches that
	// force degraded-mode routing. Nil means no injection.
	faults       *fault.Injector
	eccFallbacks int64

	// trc records logical spans (grant arbitration, copies) and routing
	// instants; nil (the default) disables tracing with no overhead.
	trc *trace.Recorder

	// tel feeds the grant-wait time series; nil (the default) disables
	// telemetry with no overhead.
	tel *telemetry.Collector

	// check receives routing decisions for GC copies; nil (the default)
	// disables checking with no overhead.
	check CopyChecker

	// counters for reports and tests
	hReturns, vReturns, splitReturns int64
	directCopies, relayedCopies      int64

	fops   fabricOps
	copies sim.Pool[copyOp] // recycled Copy records
}

// NewOmnibusFabric builds the channel fabric: one h-channel per grid row
// of hWidthBits, and vWidthBits > 0 adds one v-channel per controller
// (never more than one per column). packetized selects the packetized
// interface; the dedicated one is legal only as 8-bit h-channels with no
// v-channels. split enables the half-page-per-path transfer technique of
// Sec V-C. Table II: baseSSD is 8/0 dedicated, pSSD 16/0 packetized,
// pnSSD 8/8 packetized, all at the base rate.
func NewOmnibusFabric(eng *sim.Engine, name string, grid *Grid, soc *Soc, pageSize, hWidthBits, vWidthBits, rateMTps int, packetized, split bool) *OmnibusFabric {
	if !packetized && (hWidthBits != 8 || vWidthBits != 0) {
		panic("controller: dedicated interface is 8 bits wide with no v-channels")
	}
	// One v-channel per controller, but never more than one per column:
	// numV = min(channels, ways); wide grids share each v-channel across
	// ways/channels adjacent columns.
	numV, colsPerV := 0, 0
	if vWidthBits > 0 {
		numV = min(grid.Channels, grid.Ways)
		colsPerV = (grid.Ways + numV - 1) / numV
	}
	f := &OmnibusFabric{
		eng:      eng,
		name:     name,
		grid:     grid,
		soc:      soc,
		pageSize: pageSize,
		split:    split,
		h:        bus.NewChannels(eng, busNames(name, "/h", grid.Channels), hWidthBits, rateMTps),
		hIface:   make([]bus.Iface, grid.Channels),
		vIface:   make([]bus.Packetized, numV),
		colsPerV: colsPerV,
		route:    RouteGreedy,
	}
	f.fops = fabricOps{grid: grid, soc: soc, pageSize: pageSize, ret: f.returnData, deliver: f.deliverWrite}
	if numV > 0 {
		f.v = bus.NewChannels(eng, busNames(name, "/v", numV), vWidthBits, rateMTps)
	}
	// The interfaces sit behind pointers into one slab (packetized) or
	// share one value (dedicated), so filling hIface boxes nothing per
	// channel.
	hPk := make([]bus.Packetized, grid.Channels)
	var ded bus.Iface = bus.NewDedicated(rateMTps)
	for ch := range f.h {
		if packetized {
			hPk[ch] = bus.NewPacketized(&f.h[ch])
			f.hIface[ch] = &hPk[ch]
		} else {
			f.hIface[ch] = ded
		}
	}
	for i := range f.v {
		f.vIface[i] = bus.NewPacketized(&f.v[i])
	}
	return f
}

// busNames names n buses <fabric><kind><i>, such as pnSSD/h3.
func busNames(fabric, kind string, n int) []string {
	return sim.Names(n, func(b []byte, i int) []byte {
		return strconv.AppendInt(append(append(b, fabric...), kind...), int64(i), 10)
	})
}

// vIndex maps a way-column to the v-channel that serves it.
func (f *OmnibusFabric) vIndex(way int) int { return way / f.colsPerV }

// NumVChannels returns the number of v-channels in the organization.
func (f *OmnibusFabric) NumVChannels() int { return len(f.v) }

// ColumnsPerVChannel returns how many way-columns share one v-channel.
func (f *OmnibusFabric) ColumnsPerVChannel() int { return f.colsPerV }

// Name implements Fabric.
func (f *OmnibusFabric) Name() string { return f.name }

// Grid implements Fabric.
func (f *OmnibusFabric) Grid() *Grid { return f.grid }

// HChannel returns the h-channel for a row, for instrumentation.
func (f *OmnibusFabric) HChannel(ch int) *bus.Channel { return &f.h[ch] }

// VChannel returns the v-channel serving a way-column, for
// instrumentation.
func (f *OmnibusFabric) VChannel(w int) *bus.Channel { return &f.v[f.vIndex(w)] }

// RoutePolicy selects how host transfers choose between a chip's
// h-channel and v-channel.
type RoutePolicy int

// Routing policies.
const (
	// RouteHOnly disables path diversity: every host transfer uses the
	// h-channel (ablation baseline).
	RouteHOnly RoutePolicy = iota
	// RouteGreedy is the paper's policy: the first available channel wins
	// (h preferred; v only when h is busy and v idle).
	RouteGreedy
	// RouteJSQ is the "intelligent adaptive algorithm" the paper leaves
	// as future work: join the shorter queue, counting occupancy.
	RouteJSQ
)

// String names the policy.
func (p RoutePolicy) String() string {
	switch p {
	case RouteHOnly:
		return "h-only"
	case RouteGreedy:
		return "greedy"
	case RouteJSQ:
		return "jsq"
	default:
		return fmt.Sprintf("route(%d)", int(p))
	}
}

// SetRoutePolicy selects the I/O routing policy.
func (f *OmnibusFabric) SetRoutePolicy(p RoutePolicy) { f.route = p }

// SetTracer attaches a trace recorder for control-plane spans and
// routing-decision instants; nil (the default) detaches.
func (f *OmnibusFabric) SetTracer(t *trace.Recorder) { f.trc = t }

// SetTelemetry attaches a telemetry collector recording grant-wait
// intervals and grant-drop events; nil (the default) detaches.
func (f *OmnibusFabric) SetTelemetry(c *telemetry.Collector) { f.tel = c }

// CopyChecker receives one notification per GC copy when its route is
// decided: direct reports whether the copy takes the flash-to-flash
// v-channel path (true) or the controller-relayed h-channel path (false).
// The invariant checker uses it to assert that direct copies stay within
// one v-channel column.
type CopyChecker interface {
	CopyRouted(src, dst ChipID, direct bool)
}

// SetChecker attaches a copy-route checker; nil (the default) detaches.
func (f *OmnibusFabric) SetChecker(c CopyChecker) { f.check = c }

// SetFaultInjector attaches the shared fault injector. Nil detaches it.
func (f *OmnibusFabric) SetFaultInjector(inj *fault.Injector) { f.faults = inj }

// EccFallbacks returns how many direct copies re-routed through the
// controller because the on-die check flagged them.
func (f *OmnibusFabric) EccFallbacks() int64 { return f.eccFallbacks }

// eccFails draws the next deterministic on-die ECC outcome.
func (f *OmnibusFabric) eccFails() bool {
	return f.faults.Draw(fault.OnDieECC)
}

// hOnly reports whether traffic for a way-column must stay on the
// h-channels, and whether that is degraded mode. A fabric with no
// v-channels (baseSSD, pSSD) always routes over h by design: that draws
// no fault and counts no RAS event. On pnSSD a column is h-only, in
// degraded mode, while its v-channel is kill-switched.
func (f *OmnibusFabric) hOnly(way int) (hOnly, degraded bool) {
	if len(f.v) == 0 {
		return true, false
	}
	dead := f.faults.VChannelDead(f.vIndex(way))
	return dead, dead
}

// sameV reports whether one v-channel serves both chips' columns, the
// precondition of a direct flash-to-flash copy.
func (f *OmnibusFabric) sameV(a, b ChipID) bool {
	return len(f.v) > 0 && f.vIndex(a.Way) == f.vIndex(b.Way)
}

// routeToV reports whether a host transfer should take the v-channel.
func (f *OmnibusFabric) routeToV(hch, vch *bus.Channel) bool {
	switch f.route {
	case RouteHOnly:
		return false
	case RouteGreedy:
		return hch.Load() > 0 && vch.Load() == 0
	case RouteJSQ:
		return vch.Load() < hch.Load()
	default:
		return false
	}
}

// Reset implements Fabric: every h- and v-channel idle, zero counters,
// and no injector, tracer, collector or checker.
func (f *OmnibusFabric) Reset() {
	for i := range f.h {
		f.h[i].Reset()
	}
	for i := range f.v {
		f.v[i].Reset()
	}
	f.faults, f.trc, f.tel, f.check = nil, nil, nil, nil
	f.eccFallbacks = 0
	f.hReturns, f.vReturns, f.splitReturns = 0, 0, 0
	f.directCopies, f.relayedCopies = 0, 0
}

// PathCounts returns how many read returns used the h path, the v path,
// and split transfers, plus direct vs controller-relayed GC copies.
func (f *OmnibusFabric) PathCounts() (h, v, split, direct, relayed int64) {
	return f.hReturns, f.vReturns, f.splitReturns, f.directCopies, f.relayedCopies
}

// Read implements Fabric. The command always issues on the h-channel (the
// row controller owns the chip); the data return path is adaptive or
// split.
func (f *OmnibusFabric) Read(id ChipID, ppas []flash.PPA, done func()) {
	r := f.fops.read(id, ppas, done)
	f.h[id.Channel].UseOp("read-cmd", f.hIface[id.Channel].ReadCmd(), r.lane.Then(fopSense))
}

// returnData moves the read's payload from the chip's page registers to
// the controller over the chosen path(s).
func (f *OmnibusFabric) returnData(r *fabricOp) {
	id, n := r.id, r.n
	hch, hifc := &f.h[id.Channel], f.hIface[id.Channel]
	if hOnly, degraded := f.hOnly(id.Way); hOnly {
		if degraded {
			// Degraded mode: the column's v-channel is dead, so path
			// diversity collapses and the whole payload returns over the
			// row's h-channel — the failover the paper's path redundancy
			// makes possible.
			if ras := f.faults.RAS(); ras != nil {
				ras.DegradedReturns++
			}
			if f.trc.Enabled() {
				f.trc.Instant("route", "degraded-h", trace.KV{K: "chip", V: id.String()})
			}
		}
		f.hReturns++
		hch.UseOp("read-xfer", hifc.ReadXfer(n), r.lane.Then(fopXfer))
		return
	}
	vch, vifc := &f.v[f.vIndex(id.Way)], f.vIface[f.vIndex(id.Way)]
	if f.split && n > 1 && hch.Load() == 0 && vch.Load() == 0 {
		// Half the payload on each bus; the v half first traverses the
		// control plane so controller[way] drives its v-channel (one
		// request/grant exchange). Splitting pays only when both buses
		// can start immediately — if either is queued, pinning half the
		// page behind that queue is worse than routing the whole page
		// adaptively, so loaded cases fall through to the greedy path.
		f.splitReturns++
		if f.trc.Enabled() {
			f.trc.Instant("route", "split-return", trace.KV{K: "chip", V: id.String()})
		}
		half1, half2 := n/2, n-n/2
		r.splitJoin(fopXfer)
		hch.UseOp("read-xfer-half", hifc.ReadXfer(half1), r.lane.Then(fopJoin))
		r.afterVGrant(vch, "read-xfer-half", vifc.ReadXfer(half2), fopJoin)
		return
	}
	// Greedy adaptive, as in the paper: the first *available* channel is
	// used — h when it is free, the v-channel when h is busy but v is
	// free, and the default h queue when both are busy. The paper notes
	// this can make non-optimal decisions; split transfers recover the
	// unused capacity.
	if f.routeToV(hch, vch) {
		f.vReturns++
		if f.trc.Enabled() {
			f.trc.Instant("route", "v-return", trace.KV{K: "chip", V: id.String()})
		}
		r.afterVGrant(vch, "read-xfer", vifc.ReadXfer(n), fopXfer)
		return
	}
	f.hReturns++
	hch.UseOp("read-xfer", hifc.ReadXfer(n), r.lane.Then(fopXfer))
}

// Write implements Fabric. Payload delivery mirrors the read return path:
// split across h and v when enabled, otherwise greedy adaptive.
func (f *OmnibusFabric) Write(id ChipID, ops []flash.ProgramOp, done func()) {
	w := f.fops.write(id, ops, done)
	f.soc.transfer(w.n, EccLatency, w.lane.Then(fopDeliver))
}

// deliverWrite carries a write's payload from the controller to the chip
// over the chosen path(s).
func (f *OmnibusFabric) deliverWrite(w *fabricOp) {
	id, n := w.id, w.n
	hch, hifc := &f.h[id.Channel], f.hIface[id.Channel]
	if hOnly, degraded := f.hOnly(id.Way); hOnly {
		if degraded {
			// Degraded mode: deliver the whole payload on the h-channel.
			if r := f.faults.RAS(); r != nil {
				r.DegradedReturns++
			}
		}
		hch.UseOp("program-xfer", hifc.ProgramXfer(n), w.lane.Then(fopProgram))
		return
	}
	vch, vifc := &f.v[f.vIndex(id.Way)], f.vIface[f.vIndex(id.Way)]
	// Split applies to read returns only. Splitting program payloads
	// couples every write to its column's v-channel, and with way-striped
	// allocation policies consecutive writes share one column — the
	// v-channel becomes a serial hotspot that costs far more than the
	// halved serialization saves. Write payloads route adaptively
	// instead; when both buses are idle the split variant still sends
	// halves down both.
	if f.split && n > 1 && hch.Load() == 0 && vch.Load() == 0 {
		half1, half2 := n/2, n-n/2
		w.splitJoin(fopProgram)
		hch.UseOp("program-xfer-half", hifc.ProgramXfer(half1), w.lane.Then(fopJoin))
		w.afterVGrant(vch, "program-xfer-half", vifc.ProgramXfer(half2), fopJoin)
		return
	}
	if f.routeToV(hch, vch) {
		w.afterVGrant(vch, "program-xfer", vifc.ProgramXfer(n), fopProgram)
		return
	}
	hch.UseOp("program-xfer", hifc.ProgramXfer(n), w.lane.Then(fopProgram))
}

// Erase implements Fabric: a single control packet on the h-channel.
func (f *OmnibusFabric) Erase(id ChipID, blocks []flash.PPA, done func()) {
	r := f.fops.get(id, done)
	r.ppas = blocks
	f.h[id.Channel].UseOp("erase-cmd", f.hIface[id.Channel].EraseCmd(), r.lane.Then(fopErase))
}

// Copy implements Fabric. Same-column copies move directly over the
// column's v-channel: read command and transfer command both issue on the
// v-channel (driven by its owner controller, which may be the source,
// destination, or an intermediate controller per Fig 11), the payload
// crosses the v-channel exactly once into the destination's V-page
// register, and an on-die commit programs it — no h-channel, controller
// ECC, or DRAM involvement. Every other copy takes the
// controller-relayed route over the h-channels: always on a fabric with
// no v-channels, and on pnSSD for cross-column copies and copies whose
// column's v-channel is dead.
func (f *OmnibusFabric) Copy(src ChipID, from flash.PPA, dst ChipID, to flash.PPA, done func()) {
	c := f.newCopy(src, from, dst, to, done)
	hOnly, degraded := f.hOnly(src.Way)
	if degraded && f.sameV(src, dst) {
		// Degraded mode: the column's v-channel is dead, so the SpGC
		// direct path is unavailable.
		if r := f.faults.RAS(); r != nil {
			r.DeadVCopies++
		}
	}
	if hOnly || !f.sameV(src, dst) {
		f.relayCopy(c)
		return
	}
	if f.eccFails() {
		// Hybrid ECC (Sec VIII): the weak on-die detector flagged this
		// page; only the controller's LDPC can correct it, so the copy
		// takes the relayed route through the strong-ECC engine.
		f.eccFallbacks++
		if r := f.faults.RAS(); r != nil {
			r.OnDieECCFallbacks++
		}
		f.relayCopy(c)
		return
	}
	// Control plane (Fig 11): the source's controller requests the
	// v-channel owner, the owner checks the destination's buffer status,
	// and the grant comes back — three one-way messages. The V-page
	// register is reserved at grant time; if none is free, the request
	// waits at the destination in arrival order and the grant leaves the
	// instant a register frees. An injected GrantDrop loses the exchange:
	// the source controller times out after fault.GrantTimeout<<attempt
	// and re-requests, and after fault.GrantRetryMax retries it fails over
	// to the controller-relayed path — a grant is never awaited forever.
	c.arbStart = f.eng.Now()
	if f.trc.Enabled() {
		c.grantSpan = f.trc.BeginSpan("gc", "grant-wait",
			trace.KV{K: "src", V: src.String()}, trace.KV{K: "dst", V: dst.String()})
	}
	c.lane.Then(cpArbitrate)()
}

// copyOp is one OmnibusFabric.Copy from arbitration to commit, on either
// route. Records are recycled through the fabric's pool. A copy's steps
// run one after another in one lane, so a steady stream of GC copies
// allocates nothing.
type copyOp struct {
	f        *OmnibusFabric
	src, dst ChipID
	from     [1]flash.PPA // the source page, as Chip.Read takes it
	to       flash.PPA
	done     func()
	direct   bool // the flash-to-flash route over the column's v-channel

	// Grant arbitration: retries so far, when it began, and its trace
	// span.
	attempts  int
	arbStart  sim.Time
	grantSpan trace.SpanID

	span  trace.SpanID       // the copy's trace span, once routed
	reg   int                // the destination's V-page register (direct)
	token flash.Token        // the page, once sensed
	prog  [1]flash.ProgramOp // the relayed write (relay)

	lane sim.Lane[copyStep] // bound c.run
}

// copyStep names a copy's steps.
type copyStep uint8

const (
	cpArbitrate  copyStep = iota // send the request to the v-channel owner
	cpRequest                    // request at the owner
	cpStatus                     // buffer-status check at the destination
	cpVPage                      // destination register claimed
	cpGrant                      // grant back at the source
	cpReadCmd                    // read command at the source chip
	cpSensed                     // page in the source's register
	cpVXfer                      // page in the destination's V-page register
	cpCommit                     // on-die ECC done: commit
	cpRelayed                    // relayed page at the controller
	cpRelayWrite                 // relayed page in DRAM: write it out
	cpFinish                     // the copy's last event
)

// newCopy takes a copy record from the pool.
func (f *OmnibusFabric) newCopy(src ChipID, from flash.PPA, dst ChipID, to flash.PPA, done func()) *copyOp {
	c, fresh := f.copies.Get()
	if fresh {
		c.f = f
		c.lane.Bind(c.run)
	}
	c.src, c.from[0], c.dst, c.to, c.done = src, from, dst, to, done
	c.attempts = 0
	return c
}

func (c *copyOp) run() {
	f := c.f
	switch c.lane.Step {
	case cpArbitrate:
		f.soc.CtrlMsg(c.lane.Then(cpRequest))
	case cpRequest:
		c.requestStep()
	case cpStatus:
		f.grid.Chip(c.dst).WaitVPage(&c.reg, c.lane.Then(cpVPage))
	case cpVPage:
		// The claimed register is held; the grant goes back to the
		// source ctrl.
		f.soc.CtrlMsg(c.lane.Then(cpGrant))
	case cpGrant:
		c.grantStep()
	case cpReadCmd:
		f.grid.Chip(c.src).Read(c.from[:], c.lane.Then(cpSensed))
	case cpSensed:
		c.sensedStep()
	case cpVXfer:
		c.vxferStep()
	case cpCommit:
		f.grid.Chip(c.dst).ProgramFromVPage(c.reg, c.to, c.lane.Then(cpFinish))
	case cpRelayed:
		f.soc.eccTransfer(f.pageSize, c.lane.Then(cpRelayWrite))
	case cpRelayWrite:
		c.relayWriteStep()
	case cpFinish:
		c.finishStep()
	}
}

// requestStep lands the request at the v-channel owner, unless an
// injected GrantDrop lost it.
func (c *copyOp) requestStep() {
	f := c.f
	if f.faults.Draw(fault.GrantDrop) {
		ras := f.faults.RAS()
		ras.GrantDrops++
		f.tel.Event("grant-drop", f.eng.Now())
		c.attempts++
		if c.attempts > fault.GrantRetryMax {
			ras.CopyFailovers++
			f.trc.EndSpan(c.grantSpan)
			f.tel.GrantWait(c.arbStart, f.eng.Now())
			f.relayCopy(c)
			return
		}
		ras.GrantRetries++
		f.eng.Schedule(fault.GrantTimeout<<uint(c.attempts-1), c.lane.Then(cpArbitrate))
		return
	}
	f.soc.CtrlMsg(c.lane.Then(cpStatus)) // buffer-status check at destination ctrl
}

// grantStep starts the data-plane half of a same-column copy: tR on the
// source, one v-channel crossing, on-die ECC, tPROG from the V-page
// register on the destination.
func (c *copyOp) grantStep() {
	f := c.f
	f.directCopies++
	if f.check != nil {
		f.check.CopyRouted(c.src, c.dst, true)
	}
	f.trc.EndSpan(c.grantSpan)
	f.tel.GrantWait(c.arbStart, f.eng.Now())
	c.direct = true
	c.beginSpan("direct-copy")
	vi := f.vIndex(c.src.Way)
	f.v[vi].UseOp("gc-read-cmd", f.vIface[vi].ReadCmd(), c.lane.Then(cpReadCmd))
}

// relayCopy is the controller-relayed route: every copy on a fabric
// with no v-channels, and on pnSSD the fallback for cross-column copies,
// dead v-channels, on-die ECC failures and exhausted grant retries. It
// reads through the source row's h-channel into DRAM, then writes out
// through the destination row's h-channel — the Fig 10(a) route — and
// counts the copy and reports the route to the checker.
func (f *OmnibusFabric) relayCopy(c *copyOp) {
	f.relayedCopies++
	if f.check != nil {
		f.check.CopyRouted(c.src, c.dst, false)
	}
	c.direct = false
	c.beginSpan("relay-copy")
	ch := c.src.Channel
	f.h[ch].UseOp("gc-read-cmd", f.hIface[ch].ReadCmd(), c.lane.Then(cpReadCmd))
}

// beginSpan opens the copy's gc trace span named name when tracing is
// on.
func (c *copyOp) beginSpan(name string) {
	if f := c.f; f.trc.Enabled() {
		c.span = f.trc.BeginSpan("gc", name, trace.KV{K: "src", V: c.src.String()}, trace.KV{K: "dst", V: c.dst.String()})
	}
}

// sensedStep moves the sensed page off the source: over the v-channel
// into the destination's V-page register, or over the source row's
// h-channel toward DRAM.
func (c *copyOp) sensedStep() {
	f := c.f
	c.token = f.grid.Chip(c.src).PageRegister(c.from[0].Plane)
	if c.direct {
		vi := f.vIndex(c.src.Way)
		f.v[vi].UseOp("gc-vxfer", f.vIface[vi].VXfer(f.pageSize), c.lane.Then(cpVXfer))
		return
	}
	ch := c.src.Channel
	f.h[ch].UseOp("gc-read-xfer", f.hIface[ch].ReadXfer(f.pageSize), c.lane.Then(cpRelayed))
}

// vxferStep lands the payload in the V-page register; on-die ECC runs
// before the commit.
func (c *copyOp) vxferStep() {
	c.f.grid.Chip(c.dst).SetVPage(c.reg, c.token)
	c.f.eng.Schedule(OnDieEccLatency, c.lane.Then(cpCommit))
}

// relayWriteStep writes the page out from DRAM like any host write.
func (c *copyOp) relayWriteStep() {
	c.prog[0] = flash.ProgramOp{Addr: c.to, Token: c.token}
	c.f.Write(c.dst, c.prog[:], c.lane.Then(cpFinish))
}

// finishStep is the copy's last event: it closes the trace span, goes
// back to the pool and runs done.
func (c *copyOp) finishStep() {
	f, done := c.f, c.done
	f.trc.EndSpan(c.span)
	c.done, c.span, c.grantSpan = nil, trace.SpanID{}, trace.SpanID{}
	f.copies.Put(c)
	if done != nil {
		done()
	}
}
