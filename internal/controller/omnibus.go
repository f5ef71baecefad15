package controller

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// OmnibusFabric is the pnSSD interconnect (Fig 9(c)): the packetized
// bandwidth is partitioned into an 8-bit h-channel per row and an 8-bit
// v-channel per column, with channel controller k driving both h-channel
// k and v-channel k. Data-plane movement between chips happens on the
// v-channels; the control plane runs between controllers over the SoC
// interconnect with the source/destination/intermediate roles of Fig 11.
//
// I/O reads return over whichever of the chip's two buses is less loaded
// (the paper's greedy adaptive choice), or over both at once when split
// transfers are enabled. GC page copies between chips in the same column
// use only that column's v-channel — the property Spatial GC exploits.
type OmnibusFabric struct {
	eng      *sim.Engine
	name     string
	grid     *Grid
	soc      *Soc
	pageSize int
	split    bool

	h      []*bus.Channel
	v      []*bus.Channel
	hIface []bus.Packetized
	vIface []bus.Packetized

	// colsPerV is how many adjacent way-columns share one v-channel. It is
	// 1 in the square organization; in a wide organization (more ways than
	// channels) each controller's single v-channel must interconnect
	// Ways/Channels columns (Sec V-E). In a tall organization (more
	// channels than ways) there is one v-channel per way and the surplus
	// controllers drive only their h-channel.
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

	reads readOps
}

// NewOmnibusFabric builds the Omnibus fabric. Table II: 8 h-channels and
// 8 v-channels, all 8 bits at the base rate. split enables the
// half-page-per-path transfer technique of Sec V-C.
func NewOmnibusFabric(eng *sim.Engine, name string, grid *Grid, soc *Soc, pageSize, widthBits, rateMTps int, split bool) *OmnibusFabric {
	return NewOmnibusFabricAsym(eng, name, grid, soc, pageSize, widthBits, widthBits, rateMTps, split)
}

// NewOmnibusFabricAsym builds an Omnibus fabric with different h- and
// v-channel widths, for the bandwidth-partitioning ablation (how much of
// the packetized 16-bit budget to give the vertical dimension).
func NewOmnibusFabricAsym(eng *sim.Engine, name string, grid *Grid, soc *Soc, pageSize, hWidthBits, vWidthBits, rateMTps int, split bool) *OmnibusFabric {
	// One v-channel per controller, but never more than one per column:
	// numV = min(channels, ways); wide grids share each v-channel across
	// ways/channels adjacent columns.
	numV := grid.Channels
	if grid.Ways < numV {
		numV = grid.Ways
	}
	colsPerV := (grid.Ways + numV - 1) / numV
	f := &OmnibusFabric{
		eng:      eng,
		name:     name,
		grid:     grid,
		soc:      soc,
		pageSize: pageSize,
		split:    split,
		h:        make([]*bus.Channel, grid.Channels),
		v:        make([]*bus.Channel, numV),
		hIface:   make([]bus.Packetized, grid.Channels),
		vIface:   make([]bus.Packetized, numV),
		colsPerV: colsPerV,
		route:    RouteGreedy,
	}
	f.reads = readOps{grid: grid, soc: soc, pageSize: pageSize, ret: f.returnData}
	for ch := 0; ch < grid.Channels; ch++ {
		f.h[ch] = bus.NewChannel(eng, fmt.Sprintf("%s/h%d", name, ch), hWidthBits, rateMTps)
		f.hIface[ch] = bus.NewPacketized(f.h[ch])
	}
	for i := 0; i < numV; i++ {
		f.v[i] = bus.NewChannel(eng, fmt.Sprintf("%s/v%d", name, i), vWidthBits, rateMTps)
		f.vIface[i] = bus.NewPacketized(f.v[i])
	}
	return f
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
func (f *OmnibusFabric) HChannel(ch int) *bus.Channel { return f.h[ch] }

// VChannel returns the v-channel serving a way-column, for
// instrumentation.
func (f *OmnibusFabric) VChannel(w int) *bus.Channel { return f.v[f.vIndex(w)] }

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

// FaultInjector returns the attached injector (possibly nil).
func (f *OmnibusFabric) FaultInjector() *fault.Injector { return f.faults }

// EccFallbacks returns how many direct copies re-routed through the
// controller because the on-die check flagged them.
func (f *OmnibusFabric) EccFallbacks() int64 { return f.eccFallbacks }

// eccFails draws the next deterministic on-die ECC outcome.
func (f *OmnibusFabric) eccFails() bool {
	return f.faults.Draw(fault.OnDieECC)
}

// vDead reports whether the v-channel serving a way-column is
// kill-switched; degraded-mode routing must avoid it.
func (f *OmnibusFabric) vDead(way int) bool {
	return f.faults.VChannelDead(f.vIndex(way))
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

// PathCounts returns how many read returns used the h path, the v path,
// and split transfers, plus direct vs controller-relayed GC copies.
func (f *OmnibusFabric) PathCounts() (h, v, split, direct, relayed int64) {
	return f.hReturns, f.vReturns, f.splitReturns, f.directCopies, f.relayedCopies
}

// Read implements Fabric. The command always issues on the h-channel (the
// row controller owns the chip); the data return path is adaptive or
// split.
func (f *OmnibusFabric) Read(id ChipID, ppas []flash.PPA, done func()) {
	r := f.reads.get(id, ppas, done)
	f.h[id.Channel].UseOp("read-cmd", f.hIface[id.Channel].ReadCmd(), r.sense)
}

// returnData moves the read's payload from the chip's page registers to
// the controller over the chosen path(s).
func (f *OmnibusFabric) returnData(r *readOp) {
	id, n := r.id, r.n
	hch, vch := f.h[id.Channel], f.v[f.vIndex(id.Way)]
	hifc, vifc := f.hIface[id.Channel], f.vIface[f.vIndex(id.Way)]
	if f.vDead(id.Way) {
		// Degraded mode: the column's v-channel is dead, so path diversity
		// collapses and the whole payload returns over the row's h-channel
		// — the failover the paper's path redundancy makes possible.
		if ras := f.faults.RAS(); ras != nil {
			ras.DegradedReturns++
		}
		f.hReturns++
		if f.trc.Enabled() {
			f.trc.Instant("route", "degraded-h", trace.KV{K: "chip", V: id.String()})
		}
		hch.UseOp("read-xfer", hifc.ReadXfer(n), r.xfer)
		return
	}
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
		r.joins = 2
		hch.UseOp("read-xfer-half", hifc.ReadXfer(half1), r.join)
		r.afterVGrant(vch, "read-xfer-half", vifc.ReadXfer(half2), r.join)
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
		r.afterVGrant(vch, "read-xfer", vifc.ReadXfer(n), r.xfer)
		return
	}
	f.hReturns++
	hch.UseOp("read-xfer", hifc.ReadXfer(n), r.xfer)
}

// afterVGrant runs fn once the request/grant exchange over the control
// plane lets controller[way] drive its v-channel for a host transfer.
func (f *OmnibusFabric) afterVGrant(fn func()) {
	f.soc.CtrlMsg(func() { f.soc.CtrlMsg(fn) })
}

// Write implements Fabric. Payload delivery mirrors the read return path:
// split across h and v when enabled, otherwise greedy adaptive.
func (f *OmnibusFabric) Write(id ChipID, ops []flash.ProgramOp, done func()) {
	hch, vch := f.h[id.Channel], f.v[f.vIndex(id.Way)]
	hifc, vifc := f.hIface[id.Channel], f.vIface[f.vIndex(id.Way)]
	chip := f.grid.Chip(id)
	n := totalBytes(f.pageSize, len(ops))
	writes := append([]flash.ProgramOp(nil), ops...)
	f.soc.Transfer(n, func() {
		f.eng.Schedule(EccLatency, func() {
			program := func() { chip.Program(writes, done) }
			if f.vDead(id.Way) {
				// Degraded mode: deliver the whole payload on the h-channel.
				if r := f.faults.RAS(); r != nil {
					r.DegradedReturns++
				}
				hch.UseOp("program-xfer", hifc.ProgramXfer(n), program)
				return
			}
			// Split applies to read returns only. Splitting program
			// payloads couples every write to its column's v-channel, and
			// with way-striped allocation policies consecutive writes
			// share one column — the v-channel becomes a serial hotspot
			// that costs far more than the halved serialization saves.
			// Write payloads route adaptively instead; when both buses are
			// idle the split variant still sends halves down both.
			if f.split && n > 1 && hch.Load() == 0 && vch.Load() == 0 {
				half1, half2 := n/2, n-n/2
				remaining := 2
				join := func() {
					remaining--
					if remaining == 0 {
						program()
					}
				}
				hch.UseOp("program-xfer-half", hifc.ProgramXfer(half1), join)
				f.afterVGrant(func() { vch.UseOp("program-xfer-half", vifc.ProgramXfer(half2), join) })
				return
			}
			if f.routeToV(hch, vch) {
				f.afterVGrant(func() { vch.UseOp("program-xfer", vifc.ProgramXfer(n), program) })
				return
			}
			hch.UseOp("program-xfer", hifc.ProgramXfer(n), program)
		})
	})
}

// Erase implements Fabric: a single control packet on the h-channel.
func (f *OmnibusFabric) Erase(id ChipID, blocks []flash.PPA, done func()) {
	ch := f.h[id.Channel]
	ifc := f.hIface[id.Channel]
	chip := f.grid.Chip(id)
	ch.UseOp("erase-cmd", ifc.EraseCmd(), func() {
		chip.Erase(blocks, done)
	})
}

// Copy implements Fabric. Same-column copies move directly over the
// column's v-channel: read command and transfer command both issue on the
// v-channel (driven by its owner controller, which may be the source,
// destination, or an intermediate controller per Fig 11), the payload
// crosses the v-channel exactly once into the destination's V-page
// register, and an on-die commit programs it — no h-channel, controller
// ECC, or DRAM involvement. Cross-column copies fall back to the
// controller-relayed route over the h-channels.
func (f *OmnibusFabric) Copy(src ChipID, from flash.PPA, dst ChipID, to flash.PPA, done func()) {
	if f.vIndex(src.Way) != f.vIndex(dst.Way) {
		f.relayCopy(src, from, dst, to, done)
		return
	}
	if f.vDead(src.Way) {
		// Degraded mode: the column's v-channel is dead, so the SpGC
		// direct path is unavailable and the copy falls back to the
		// controller-relayed route over the rows' h-channels.
		if r := f.faults.RAS(); r != nil {
			r.DeadVCopies++
		}
		f.relayCopy(src, from, dst, to, done)
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
		f.relayCopy(src, from, dst, to, done)
		return
	}
	vch := f.v[f.vIndex(src.Way)]
	vifc := f.vIface[f.vIndex(src.Way)]
	srcChip, dstChip := f.grid.Chip(src), f.grid.Chip(dst)

	// Control plane (Fig 11): the source's controller requests the
	// v-channel owner, the owner checks the destination's buffer status,
	// and the grant comes back — three one-way messages. The V-page
	// register is reserved at grant time; if none is free, the request
	// waits at the destination in arrival order and the grant leaves the
	// instant a register frees. An injected GrantDrop loses the exchange:
	// the source controller times out after GrantTimeout<<attempt and
	// re-requests, and when the retry budget is exhausted it fails over
	// to the controller-relayed path — a grant is never awaited forever.
	attempts := 0
	arbStart := f.eng.Now()
	var waited sim.Time
	var grantSpan trace.SpanID
	if f.trc.Enabled() {
		grantSpan = f.trc.BeginSpan("gc", "grant-wait",
			trace.KV{K: "src", V: src.String()}, trace.KV{K: "dst", V: dst.String()})
	}
	var arbitrate func()
	arbitrate = func() {
		f.soc.CtrlMsg(func() { // request: source ctrl -> v-channel owner
			if f.faults.Draw(fault.GrantDrop) {
				ras := f.faults.RAS()
				ras.GrantDrops++
				f.tel.Event("grant-drop", f.eng.Now())
				cfg := f.faults.Config()
				attempts++
				backoff := cfg.GrantTimeout << uint(attempts-1)
				// The ladder is doubly bounded: by retry count and by the
				// cumulative backoff-time budget. Either bound exhausting
				// fails the copy over to the relay path; a budget-triggered
				// failover (the count alone would have kept retrying) is
				// tallied separately so the report distinguishes "gave up
				// after N tries" from "ran out of time".
				if attempts > cfg.GrantRetryMax || waited+backoff > cfg.GrantBackoffBudget {
					if attempts <= cfg.GrantRetryMax {
						ras.GrantBudgetExhausted++
					}
					ras.CopyFailovers++
					f.trc.EndSpan(grantSpan)
					f.tel.GrantWait(arbStart, f.eng.Now())
					f.relayCopy(src, from, dst, to, done)
					return
				}
				ras.GrantRetries++
				waited += backoff
				f.eng.Schedule(backoff, arbitrate)
				return
			}
			f.soc.CtrlMsg(func() { // buffer-status check at destination ctrl
				dstChip.WaitVPage(func(reg int) {
					f.soc.CtrlMsg(func() { // grant back to source ctrl
						f.directCopies++
						if f.check != nil {
							f.check.CopyRouted(src, dst, true)
						}
						f.trc.EndSpan(grantSpan)
						f.tel.GrantWait(arbStart, f.eng.Now())
						f.directTransfer(vch, vifc, srcChip, from, dstChip, reg, to, f.copySpan("direct-copy", src, dst, done))
					})
				})
			})
		})
	}
	arbitrate()
}

// directTransfer runs the data-plane half of a same-column copy: tR on the
// source, one v-channel crossing, on-die ECC, tPROG from the V-page
// register on the destination.
func (f *OmnibusFabric) directTransfer(vch *bus.Channel, vifc bus.Packetized, srcChip *flash.Chip, from flash.PPA, dstChip *flash.Chip, reg int, to flash.PPA, done func()) {
	vch.UseOp("gc-read-cmd", vifc.ReadCmd(), func() {
		srcChip.Read([]flash.PPA{from}, func() {
			token := srcChip.PageRegister(from.Plane)
			vch.UseOp("gc-vxfer", vifc.VXfer(f.pageSize), func() {
				dstChip.SetVPage(reg, token)
				f.eng.Schedule(OnDieEccLatency, func() {
					dstChip.ProgramFromVPage(reg, to, done)
				})
			})
		})
	})
}

// relayCopy is the controller-relayed route, the fallback for
// cross-column copies, dead v-channels, on-die ECC failures and exhausted
// grant retries: read through the source row's h-channel into DRAM, then
// write out through the destination row's h-channel — the Fig 10(a)
// route. It counts the copy and reports the route to the checker.
func (f *OmnibusFabric) relayCopy(src ChipID, from flash.PPA, dst ChipID, to flash.PPA, done func()) {
	f.relayedCopies++
	if f.check != nil {
		f.check.CopyRouted(src, dst, false)
	}
	done = f.copySpan("relay-copy", src, dst, done)
	hch := f.h[src.Channel]
	hifc := f.hIface[src.Channel]
	srcChip := f.grid.Chip(src)
	n := f.pageSize
	hch.UseOp("gc-read-cmd", hifc.ReadCmd(), func() {
		srcChip.Read([]flash.PPA{from}, func() {
			token := srcChip.PageRegister(from.Plane)
			hch.UseOp("gc-read-xfer", hifc.ReadXfer(n), func() {
				f.soc.eccTransfer(n, func() {
					f.Write(dst, []flash.ProgramOp{{Addr: to, Token: token}}, done)
				})
			})
		})
	})
}

// copySpan wraps done in a gc trace span named name when tracing is on.
func (f *OmnibusFabric) copySpan(name string, src, dst ChipID, done func()) func() {
	if !f.trc.Enabled() {
		return done
	}
	sp := f.trc.BeginSpan("gc", name, trace.KV{K: "src", V: src.String()}, trace.KV{K: "dst", V: dst.String()})
	return func() {
		f.trc.EndSpan(sp)
		if done != nil {
			done()
		}
	}
}
