// Package host models the NVMe front end of the SSD and drives workloads
// against the FTL. It supports open-loop trace replay (requests arrive at
// trace timestamps) and closed-loop generators (a fixed number of
// outstanding I/Os, the x-axis of the paper's Figs 16-17), and records
// per-request latency into stats.IOMetrics.
package host

import (
	"fmt"
	"slices"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Request is one host I/O at page granularity: Pages consecutive LPNs
// starting at LPN. Tenant selects the submission queue when the request
// goes through a multi-queue Frontend; the single-queue Host ignores it.
type Request struct {
	Arrival sim.Time
	Kind    stats.IOKind
	LPN     int64
	Pages   int
	Tenant  int
}

// DefaultCmdLatency is the fixed NVMe command processing overhead
// (submission queue doorbell, fetch, completion) per request.
const DefaultCmdLatency = 1 * sim.Microsecond

// Host is the front end bound to one FTL.
type Host struct {
	eng        *sim.Engine
	f          *ftl.FTL
	pageSize   int
	nvme       *sim.Resource
	nvmePsByte sim.Time

	metrics  *stats.IOMetrics
	versions map[int64]int64
	inFlight int
	reqSeq   int64
	freeReqs []*request // recycled Submit records

	// trc records one async span per request lifecycle (arrival through
	// completion); nil (the default) disables tracing with no overhead.
	trc *trace.Recorder
	// tel attributes per-request latency to phases and feeds windowed
	// time series; nil (the default) disables telemetry with no
	// overhead, matching the tracer contract.
	tel *telemetry.Collector
}

// New builds a host. nvmeMBps is the host link bandwidth (Table II: PCIe
// 4.0 x4, provisioned at the total flash bus bandwidth).
func New(eng *sim.Engine, f *ftl.FTL, pageSize, nvmeMBps int) *Host {
	if nvmeMBps <= 0 {
		panic("host: non-positive NVMe bandwidth")
	}
	return &Host{
		eng:        eng,
		f:          f,
		pageSize:   pageSize,
		nvme:       sim.NewResource(eng, "nvme"),
		nvmePsByte: sim.Time(1_000_000 / nvmeMBps),
		metrics:    stats.NewIOMetrics(),
		versions:   make(map[int64]int64),
	}
}

// Reset returns a host with nothing in flight to its state at New: the
// NVMe link idle, empty metrics, every LPN at version 0, and no tracer
// or collector. Its maps, metrics and recycled records keep their
// capacity. A host with requests in flight panics.
func (h *Host) Reset() {
	if h.inFlight != 0 {
		panic(fmt.Sprintf("host: reset with %d requests in flight", h.inFlight))
	}
	h.nvme.Reset()
	h.metrics.Reset()
	clear(h.versions)
	h.reqSeq = 0
	h.trc, h.tel = nil, nil
}

// Metrics returns the recorder.
func (h *Host) Metrics() *stats.IOMetrics { return h.metrics }

// SetTracer attaches a trace recorder for request lifecycle spans; nil
// (the default) detaches.
func (h *Host) SetTracer(t *trace.Recorder) { h.trc = t }

// SetTelemetry attaches a telemetry collector for latency attribution
// and windowed host series; nil (the default) detaches.
func (h *Host) SetTelemetry(c *telemetry.Collector) { h.tel = c }

// AddObserver attaches a hold/queue observer to the NVMe link resource,
// alongside any already installed.
func (h *Host) AddObserver(o sim.ResourceObserver) { h.nvme.AddObserver(o) }

// NvmeName returns the NVMe link resource's trace track name.
func (h *Host) NvmeName() string { return h.nvme.Name() }

// NvmeIdle reports whether the NVMe link is idle with no queued
// transfers — a drained-device invariant.
func (h *Host) NvmeIdle() bool { return !h.nvme.Busy() && h.nvme.QueueLen() == 0 }

// InFlight returns requests submitted but not completed.
func (h *Host) InFlight() int { return h.inFlight }

// Warmup installs the whole footprint [0, lpns) instantly so reads always
// hit mapped pages and the device starts at realistic occupancy.
func (h *Host) Warmup(lpns int64) {
	for lpn := int64(0); lpn < lpns; lpn++ {
		h.f.Install(lpn, ftl.TokenFor(lpn, 0))
	}
}

// Submit issues one request now (the request's Arrival field is used only
// for latency accounting and must not be in the future). done may be nil.
// A malformed request — non-positive page count, unknown kind, or an
// arrival still in the future — is rejected with an error before any
// event is scheduled, so replaying an untrusted trace cannot crash the
// simulation.
func (h *Host) Submit(r Request, done func()) error { return h.submit(r, completion{done: done}) }

// completion is what a request reports to when it completes, besides
// the host's own metrics. Every field may be zero.
type completion struct {
	done func()       // the caller's callback
	at   *sim.Time    // a replay's completion-time slot
	fe   *Frontend    // the front end that dispatched the request
	span trace.SpanID // its tenant span on fe's trace
}

// submit is Submit with the full completion.
func (h *Host) submit(r Request, c completion) error {
	if err := r.validate(h.eng.Now()); err != nil {
		return err
	}
	h.inFlight++
	q := h.newRequest()
	q.req, q.c = r, c
	q.lpns = q.lpns[:0]
	for i := 0; i < r.Pages; i++ {
		lpn := r.LPN + int64(i)
		if lpn >= h.f.NumLPNs() {
			lpn %= h.f.NumLPNs()
		}
		q.lpns = append(q.lpns, lpn)
	}
	q.bytes = int64(r.Pages) * int64(h.pageSize)
	q.span = trace.SpanID{}
	if h.trc.Enabled() {
		h.reqSeq++
		q.span = h.trc.BeginSpan("req", r.Kind.String(),
			trace.KV{K: "seq", V: h.reqSeq},
			trace.KV{K: "lpn", V: r.LPN},
			trace.KV{K: "pages", V: r.Pages})
	}
	// Latency attribution: the marks below partition [arrival,
	// completion] along the request path — sq-wait to NVMe pickup,
	// command processing, link transfer, FTL stall, flash work — so
	// phase durations sum exactly to end-to-end latency.
	q.att = h.tel.StartRequest(r.Kind, r.Arrival)
	q.att.Mark(telemetry.PhaseQueue, h.eng.Now())
	q.xfer = sim.Time(q.bytes) * h.nvmePsByte
	if r.Kind == stats.Write {
		q.toks = q.toks[:0]
		for _, lpn := range q.lpns {
			h.versions[lpn]++
			q.toks = append(q.toks, ftl.TokenFor(lpn, h.versions[lpn]))
		}
	}
	h.eng.Schedule(DefaultCmdLatency, q.then(reqCmd))
	return nil
}

// request is one Submit from command fetch to completion. Records are
// recycled through the host's free list and keep the capacity of their
// lpns and token buffers. Their steps run one after another, so a record
// has one lane: fire, a method value bound once when the record is
// created, runs the step that step names, and a steady stream of
// requests allocates nothing in the host.
type request struct {
	h     *Host
	req   Request
	c     completion
	lpns  []int64
	toks  []flash.Token // write payload
	bytes int64
	xfer  sim.Time // NVMe link time of the payload
	span  trace.SpanID
	att   *telemetry.Attribution

	step reqStep // what fire runs next
	fire func()  // bound q.run
}

// reqStep names a request's steps.
type reqStep uint8

const (
	reqCmd     reqStep = iota // command processed
	reqFlashed                // read data in DRAM
	reqPayload                // write payload across the link
	reqFinish                 // completion
)

// newRequest pops a request record off the free list, building one if
// empty.
func (h *Host) newRequest() *request {
	if n := len(h.freeReqs); n > 0 {
		q := h.freeReqs[n-1]
		h.freeReqs = h.freeReqs[:n-1]
		return q
	}
	q := &request{h: h}
	q.fire = q.run
	return q
}

// then arms the record's lane with step s and returns its callback.
func (q *request) then(s reqStep) func() {
	q.step = s
	return q.fire
}

func (q *request) run() {
	switch q.step {
	case reqCmd:
		q.cmdStep()
	case reqFlashed:
		q.flashedStep()
	case reqPayload:
		q.payloadStep()
	case reqFinish:
		q.finishStep()
	}
}

// cmdStep runs once the command is processed: a read goes to the FTL, a
// write first pulls its payload over the NVMe link.
func (q *request) cmdStep() {
	h := q.h
	q.att.Mark(telemetry.PhaseCmd, h.eng.Now())
	if q.req.Kind == stats.Read {
		h.f.ReadTracked(q.lpns, q.att, q.then(reqFlashed))
		return
	}
	h.nvme.UseLabeled("write-payload", q.xfer, q.then(reqPayload))
}

// flashedStep returns read data over the NVMe link.
func (q *request) flashedStep() {
	q.att.Mark(telemetry.PhaseFlash, q.h.eng.Now())
	q.h.nvme.UseLabeled("read-return", q.xfer, q.then(reqFinish))
}

// payloadStep hands a write's payload to the FTL.
func (q *request) payloadStep() {
	q.att.Mark(telemetry.PhaseXfer, q.h.eng.Now())
	q.h.f.WriteTracked(q.lpns, q.toks, q.att, q.then(reqFinish))
}

// finishStep records the completion, returns the record to the free
// list, and then reports the completion: the time to its slot, the
// tenant's metrics to the front end, done, which may submit the next
// request, and last the front end's dispatcher, for the freed slot.
func (q *request) finishStep() {
	h := q.h
	h.inFlight--
	now := h.eng.Now()
	r := q.req
	h.metrics.Record(r.Kind, r.Arrival, now, q.bytes)
	h.trc.EndSpan(q.span)
	if r.Kind == stats.Read {
		q.att.Mark(telemetry.PhaseXfer, now)
	} else {
		q.att.Mark(telemetry.PhaseFlash, now)
	}
	h.tel.FinishRequest(q.att, now, q.bytes)
	c := q.c
	q.c, q.att = completion{}, nil
	h.freeReqs = append(h.freeReqs, q)
	if c.at != nil {
		*c.at = now
	}
	if c.fe != nil {
		c.fe.finished(r, c.span)
	}
	if c.done != nil {
		c.done()
	}
	if c.fe != nil {
		c.fe.pump()
	}
}

// validate rejects a malformed request; now is the engine clock a
// future-arrival check compares against.
func (r Request) validate(now sim.Time) error {
	if r.Pages <= 0 {
		return fmt.Errorf("host: request with %d pages", r.Pages)
	}
	if r.Kind != stats.Read && r.Kind != stats.Write {
		return fmt.Errorf("host: unknown request kind %d", int(r.Kind))
	}
	if r.Arrival > now {
		return fmt.Errorf("host: submit at %v before arrival time %v", now, r.Arrival)
	}
	return nil
}

// Replay schedules every request of an open-loop trace at its arrival
// time; run the engine afterwards and read Metrics. It returns the
// per-request completion times: entry i is when request i's completion
// fired, or -1 if it never completed by the time the engine drained
// (array-level reassembly needs this view — a stripe's host latency is
// the max over its shard completions). The whole trace is validated up
// front — an arrival before the current simulation time, a
// non-positive page count, or an unknown kind rejects the trace with an
// error and schedules nothing, so a malformed trace file cannot crash a
// sweep.
func (h *Host) Replay(reqs []Request) ([]sim.Time, error) {
	return replay(h.eng, reqs, nil, func(r Request, at *sim.Time) error {
		return h.submit(r, completion{at: at})
	})
}

// MustReplay replays a trace the caller knows is well-formed (generated
// in-process, not loaded from disk), panicking on a validation failure —
// the convenience the experiment drivers use. Untrusted traces go
// through Replay and handle the error.
func (h *Host) MustReplay(reqs []Request) []sim.Time {
	times, err := h.Replay(reqs)
	if err != nil {
		panic(err)
	}
	return times
}

// replay is the validate-then-schedule body shared by Host.Replay and
// Frontend.Replay. Each request must pass check (when non-nil) and the
// arrival and shape rules before anything is scheduled; then the trace
// is copied, so the caller may reuse its slice, and one Engine.AtEach
// stream hands each request to submit at its arrival time, with the slot
// of the completion table its completion time goes to.
func replay(eng *sim.Engine, reqs []Request, check func(Request) error, submit func(Request, *sim.Time) error) ([]sim.Time, error) {
	now := eng.Now()
	for i, r := range reqs {
		if check != nil {
			if err := check(r); err != nil {
				return nil, fmt.Errorf("host: request %d: %w", i, err)
			}
		}
		if r.Arrival < now {
			return nil, fmt.Errorf("host: request %d arrival %v is in the past (now %v)", i, r.Arrival, now)
		}
		if err := r.validate(r.Arrival); err != nil {
			return nil, fmt.Errorf("host: request %d: %w", i, err)
		}
	}
	trace := slices.Clone(reqs)
	times := make([]sim.Time, len(reqs))
	for i, r := range trace {
		times[i] = r.Arrival
	}
	eng.AtEach(times, func(i int) {
		if err := submit(trace[i], &times[i]); err != nil {
			panic(err) // validated above; a rejection here is a bug
		}
	})
	// AtEach copied the arrivals; times now collects completions.
	for i := range times {
		times[i] = -1
	}
	return times, nil
}

// mustSubmit issues a request already validated by the caller; a
// rejection here is a host-layer bug, not bad input.
func (h *Host) mustSubmit(r Request, done func()) {
	if err := h.Submit(r, done); err != nil {
		panic(err)
	}
}

// RunClosedLoop keeps `outstanding` requests in flight until total
// requests have been issued, pulling each next request from gen. It
// schedules the first wave now; run the engine to completion afterwards.
func (h *Host) RunClosedLoop(gen func(i int) Request, outstanding, total int) {
	if outstanding <= 0 || total <= 0 {
		panic("host: invalid closed-loop parameters")
	}
	if outstanding > total {
		outstanding = total
	}
	issued := 0
	var issue func()
	issue = func() {
		if issued >= total {
			return
		}
		r := gen(issued)
		issued++
		r.Arrival = h.eng.Now()
		h.mustSubmit(r, issue)
	}
	for i := 0; i < outstanding; i++ {
		h.eng.Schedule(0, issue)
	}
}
