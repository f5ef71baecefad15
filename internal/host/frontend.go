package host

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TenantConfig describes one tenant's NVMe submission/completion queue
// pair: its arbitration weight, an optional burst cap on consecutive
// grants (deficit arbiter only), and optional per-kind latency targets
// the per-tenant SLO accounting judges completions against.
type TenantConfig struct {
	Name   string
	Weight int         // arbitration weight; <=0 means 1
	Burst  int         // max consecutive grants under dwrr; 0 = unlimited
	SLO    [2]sim.Time // per stats.IOKind latency target; 0 disables
}

// FrontendConfig parameterizes the multi-queue front end.
type FrontendConfig struct {
	// Tenants declares one queue pair per tenant, in tenant-ID order.
	Tenants []TenantConfig
	// Arbiter names the grant policy: "rr" (default), "wrr", "dwrr".
	Arbiter string
	// MaxInflight caps the commands dispatched into the device across
	// all queues; 0 means unlimited (every command dispatches at
	// enqueue, so arbitration never delays anything — the single-tenant
	// equivalence configuration).
	MaxInflight int
}

// Validate rejects a malformed configuration.
func (c FrontendConfig) Validate() error {
	if len(c.Tenants) == 0 {
		return fmt.Errorf("host: frontend with no tenants")
	}
	if _, err := NewArbiter(c.Arbiter); err != nil {
		return err
	}
	if c.MaxInflight < 0 {
		return fmt.Errorf("host: negative MaxInflight %d", c.MaxInflight)
	}
	for i, t := range c.Tenants {
		if t.Weight < 0 || t.Burst < 0 {
			return fmt.Errorf("host: tenant %d (%s): negative weight or burst", i, t.Name)
		}
	}
	return nil
}

// FrontendObserver receives queue-pair lifecycle callbacks — the hook
// the invariant checker uses for per-queue depth accounting, the
// arbiter fairness bound, and per-tenant conservation. Depths are
// reported after the transition.
type FrontendObserver interface {
	// TenantQueued fires after a command lands in a submission queue.
	TenantQueued(tenant, depth int)
	// TenantGranted fires after the arbiter dispatches a queue's head.
	TenantGranted(tenant, depth int)
	// TenantDone fires when a dispatched command completes.
	TenantDone(tenant int)
}

// pending is one queued command and the caller's part of its
// completion: a callback or a replay's completion-time slot.
type pending struct {
	req Request
	c   completion
}

// tenantQueue is one submission queue pair: its queued commands, oldest
// first.
type tenantQueue struct {
	cfg TenantConfig
	sim.Queue[pending]
}

// Frontend is the multi-tenant NVMe front end: N submission/completion
// queue pairs ahead of one Host, with a pluggable arbiter deciding
// which queue's head command dispatches whenever an inflight slot is
// free. Per-tenant latency, throughput, and SLO-violation metrics are
// recorded at completion. All methods run on the simulation's single
// goroutine; dispatch happens synchronously inside enqueue and
// completion events, so a Frontend adds no engine events of its own —
// with MaxInflight 0 and one tenant, a run is event-for-event identical
// to driving the Host directly.
type Frontend struct {
	h        *Host
	eng      *sim.Engine
	arb      Arbiter
	max      int
	queues   []*tenantQueue
	views    []QueueState // reused arbiter view, one per queue
	inflight int
	grants   []int64
	tm       *stats.TenantSet

	obs    FrontendObserver
	trc    *trace.Recorder
	tracks []*trace.Track
	// tel records per-tenant submission-queue depth series; nil (the
	// default) disables telemetry with no overhead.
	tel *telemetry.Collector
}

// NewFrontend builds a front end over a Host from a validated
// configuration.
func NewFrontend(h *Host, cfg FrontendConfig) (*Frontend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	arb, err := NewArbiter(cfg.Arbiter)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(cfg.Tenants))
	queues := make([]*tenantQueue, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		if t.Name == "" {
			t.Name = fmt.Sprintf("tenant%d", i)
		}
		names[i] = t.Name
		queues[i] = &tenantQueue{cfg: t}
	}
	fe := &Frontend{
		h:      h,
		eng:    h.eng,
		arb:    arb,
		max:    cfg.MaxInflight,
		queues: queues,
		views:  make([]QueueState, len(queues)),
		grants: make([]int64, len(queues)),
		tm:     stats.NewTenantSet(names),
	}
	for i, t := range cfg.Tenants {
		fe.tm.SetSLO(i, stats.Read, t.SLO[stats.Read])
		fe.tm.SetSLO(i, stats.Write, t.SLO[stats.Write])
	}
	return fe, nil
}

// Metrics returns the per-tenant metrics set.
func (fe *Frontend) Metrics() *stats.TenantSet { return fe.tm }

// NumTenants returns the queue-pair count.
func (fe *Frontend) NumTenants() int { return len(fe.queues) }

// Inflight returns commands dispatched but not completed.
func (fe *Frontend) Inflight() int { return fe.inflight }

// Grants returns the dispatch count per tenant, the arbiter's service
// ledger.
func (fe *Frontend) Grants(tenant int) int64 { return fe.grants[tenant] }

// Drained reports whether every queue is empty with nothing inflight —
// the front end's end-of-run invariant.
func (fe *Frontend) Drained() bool { return fe.inflight == 0 && !fe.anyQueued() }

// SetObserver attaches the queue lifecycle observer (nil detaches).
func (fe *Frontend) SetObserver(o FrontendObserver) { fe.obs = o }

// SetTelemetry attaches a telemetry collector and registers the tenant
// names with it (in queue order); nil detaches. The host's collector
// is attached separately by the device wiring.
func (fe *Frontend) SetTelemetry(c *telemetry.Collector) {
	fe.tel = c
	if c.Enabled() {
		names := make([]string, len(fe.queues))
		for i, q := range fe.queues {
			names[i] = q.cfg.Name
		}
		c.RegisterTenants(names)
	}
}

// SetTracer attaches a trace recorder and registers one track per
// tenant; request lifecycle spans (enqueue through completion, so they
// include queueing delay) land on the tenant's own track.
func (fe *Frontend) SetTracer(rec *trace.Recorder) {
	fe.trc = rec
	fe.tracks = nil
	if !rec.Enabled() {
		return
	}
	fe.tracks = make([]*trace.Track, len(fe.queues))
	for i, q := range fe.queues {
		fe.tracks[i] = rec.RegisterTrack("tenant "+q.cfg.Name, trace.KindTenant)
	}
}

// StarvationBound returns a conservative bound on how many grants other
// queues can receive while one non-empty queue waits: the invariant the
// checker's tenant-starvation rule enforces. All built-in arbiters
// rotate, so the bound is rotations x per-rotation grants; the deficit
// arbiter needs up to maxCost/quantum rotations to accumulate a large
// head command's cost.
func (fe *Frontend) StarvationBound() int {
	totalWeight := 0
	for _, q := range fe.queues {
		totalWeight += weightOf(QueueState{Weight: q.cfg.Weight})
	}
	// Per rotation, wrr grants up to totalWeight commands and dwrr up to
	// totalWeight x quantum pages of cost-1 commands; a starved head
	// command of up to 4 quanta needs 4 rotations. 16x margin keeps the
	// rule a safety net against real starvation (which is unbounded),
	// not a tight schedule assertion.
	return 16 * 4 * totalWeight * DWRRQuantumPages
}

// Enqueue places one command on a tenant's submission queue and pumps
// the dispatcher. The request is validated here (tenant range, pages,
// kind, arrival not in the future), so dispatch cannot fail later. done
// may be nil; it runs at completion after metrics are recorded.
func (fe *Frontend) Enqueue(tenant int, r Request, done func()) error {
	return fe.enqueue(tenant, pending{req: r, c: completion{done: done}})
}

// enqueue is Enqueue with the caller's full part of the completion.
func (fe *Frontend) enqueue(tenant int, p pending) error {
	if tenant < 0 || tenant >= len(fe.queues) {
		return fmt.Errorf("host: tenant %d outside [0,%d)", tenant, len(fe.queues))
	}
	if err := p.req.validate(fe.eng.Now()); err != nil {
		return err
	}
	p.req.Tenant = tenant
	q := fe.queues[tenant]
	q.Push(p)
	if fe.obs != nil {
		fe.obs.TenantQueued(tenant, q.Len())
	}
	fe.tel.TenantDepth(q.cfg.Name, q.Len(), fe.eng.Now())
	fe.pump()
	return nil
}

// Replay schedules every request of a merged multi-tenant open-loop
// trace at its arrival time, routing each to the queue its Tenant field
// names, and returns the per-request completion times. Validation is
// Host.Replay's, plus the tenant range: a bad trace rejects before
// anything is scheduled.
func (fe *Frontend) Replay(reqs []Request) ([]sim.Time, error) {
	inRange := func(r Request) error {
		if r.Tenant < 0 || r.Tenant >= len(fe.queues) {
			return fmt.Errorf("tenant %d outside [0,%d)", r.Tenant, len(fe.queues))
		}
		return nil
	}
	return replay(fe.eng, reqs, inRange, func(r Request, at *sim.Time) error {
		return fe.enqueue(r.Tenant, pending{req: r, c: completion{at: at}})
	})
}

// anyQueued reports whether any submission queue holds a command.
func (fe *Frontend) anyQueued() bool {
	for _, q := range fe.queues {
		if q.Len() > 0 {
			return true
		}
	}
	return false
}

// pump dispatches queued commands while inflight slots are free,
// consulting the arbiter once per grant. It runs synchronously inside
// enqueue and completion callbacks and never schedules events itself.
func (fe *Frontend) pump() {
	for (fe.max == 0 || fe.inflight < fe.max) && fe.anyQueued() {
		for i, q := range fe.queues {
			v := QueueState{Len: q.Len(), Weight: q.cfg.Weight, Burst: q.cfg.Burst}
			if v.Len > 0 {
				v.HeadPages = q.Peek(0).req.Pages
			}
			fe.views[i] = v
		}
		pick := fe.arb.Pick(fe.views)
		q := fe.queues[pick]
		p := q.Pop()
		fe.inflight++
		fe.grants[pick]++
		if fe.obs != nil {
			fe.obs.TenantGranted(pick, q.Len())
		}
		fe.tel.TenantDepth(q.cfg.Name, q.Len(), fe.eng.Now())
		fe.dispatch(pick, p)
	}
}

// dispatch hands one command to the host. Its completion comes back
// through the host's request record, which calls finished and, after
// the caller's done, pump.
func (fe *Frontend) dispatch(tenant int, p pending) {
	p.c.fe = fe
	if fe.trc.Enabled() {
		p.c.span = fe.trc.BeginSpanOn(fe.tracks[tenant], "tenant-req", p.req.Kind.String(),
			trace.KV{K: "lpn", V: p.req.LPN},
			trace.KV{K: "pages", V: p.req.Pages})
	}
	if err := fe.h.submit(p.req, p.c); err != nil {
		panic(err) // requests are validated at Enqueue; see Request.validate
	}
}

// finished records a dispatched command's completion: the freed
// inflight slot, per-tenant metrics, its span and the observer.
func (fe *Frontend) finished(r Request, span trace.SpanID) {
	fe.inflight--
	fe.tm.Record(r.Tenant, r.Kind, r.Arrival, fe.eng.Now(), int64(r.Pages)*int64(fe.h.pageSize))
	fe.trc.EndSpan(span)
	if fe.obs != nil {
		fe.obs.TenantDone(r.Tenant)
	}
}
