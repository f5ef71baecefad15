package sim

// Resource is a unit-capacity server with FIFO admission. It models any
// hardware element that serves one occupant at a time: a bus channel, a
// flash die, a DRAM port. Every hold is a timed hold, and a whole hold is
// one event: the grant schedules the release, and at its end the
// resource is released and done runs.
//
//   - Use/UseLabeled hold it for a duration known at the request.
//   - UseGranted holds it for a duration that its hook returns at the
//     grant, for a holder that must act at the grant instant (draw a
//     fault penalty, send a packet's head on to the next link). The hook
//     runs inline: inside UseGranted on an idle resource, or inside the
//     release that hands the resource on, before the previous holder's
//     done.
type Resource struct {
	eng  *Engine
	name string
	busy bool
	// waiters are the queued requests, oldest first; a grant pops one in
	// O(1) and zeroes its slot.
	waiters Queue[grantReq]

	// accounting
	busySince   Time
	totalBusy   Time
	totalGrants int64
	totalWait   Time
	maxWait     Time
	obs         ResourceObserver
	curLabel    string
	curQueued   Time

	// The grant schedules relStep, a method value bound once at
	// construction, so a hold builds no closure. curDone is the
	// completion callback of the hold in flight; unit capacity means at
	// most one is active, so one slot suffices. Queued holds carry their
	// duration or hook and their callback in their grantReq.
	curDone func()
	relStep func() // bound r.releaseStep
}

// ResourceObserver receives passive notifications about a resource's
// occupancy and queue, the hook the tracing subsystem attaches to. All
// callbacks fire synchronously inside a request or a release;
// implementations must only record — scheduling events or touching model
// state from an observer would perturb the simulation it is observing.
type ResourceObserver interface {
	// ResourceHold reports one completed hold: the holder enqueued at
	// queuedAt, was granted at grantedAt (equal to queuedAt for immediate
	// grants), and released at releasedAt.
	ResourceHold(r *Resource, label string, queuedAt, grantedAt, releasedAt Time)
	// ResourceQueue reports the waiter-queue depth after it changed.
	ResourceQueue(r *Resource, depth int, at Time)
}

// grantReq is one requested hold. It runs for dur, or for what hold
// returns at the grant when hold is set, then releases and calls done
// (which may be nil).
type grantReq struct {
	at    Time
	label string
	dur   Time
	hold  func() Time
	done  func()
}

// DefaultHoldLabel names holds requested without an explicit label.
const DefaultHoldLabel = "hold"

// NewResource creates an idle resource attached to the engine. The name is
// used only for diagnostics.
func NewResource(eng *Engine, name string) *Resource {
	return &NewResources(eng, []string{name})[0]
}

// NewResources creates one idle resource per name in a single slab, the
// way a device builds its dies, buses and links.
func NewResources(eng *Engine, names []string) []Resource {
	rs := make([]Resource, len(names))
	for i := range rs {
		r := &rs[i]
		r.eng, r.name = eng, names[i]
		r.relStep = r.releaseStep
	}
	return rs
}

// Names builds n strings that share one backing array: name appends the
// i-th to b. Devices name thousands of resources this way without one
// allocation per name.
func Names(n int, name func(b []byte, i int) []byte) []string {
	var buf []byte
	ends := make([]int, n)
	for i := range ends {
		buf = name(buf, i)
		ends[i] = len(buf)
	}
	all := string(buf)
	out := make([]string, n)
	start := 0
	for i, end := range ends {
		out[i] = all[start:end]
		start = end
	}
	return out
}

// Reset returns an idle resource to its state at construction: no
// observer, zero totals, and an empty waiter queue that keeps its
// capacity (an idle resource has no waiters, and a grant zeroes the
// slot it pops). A held resource panics, since its release is still
// scheduled.
func (r *Resource) Reset() {
	if r.busy {
		panic("sim: reset of held resource " + r.name)
	}
	*r = Resource{eng: r.eng, name: r.name, waiters: r.waiters, relStep: r.relStep}
}

// Name returns the diagnostic name supplied at construction.
func (r *Resource) Name() string { return r.name }

// AddObserver attaches a hold/queue observer alongside any already
// installed, fanning callbacks out to all of them in installation order.
// It is the one way in for every passive consumer — tracing, invariant
// checking, the Fig 3 utilization matrix — so none needs to know about
// the others. A nil observer is ignored. With no observer attached the
// accounting paths are unchanged, so uninstrumented runs are
// bit-identical to runs before observers existed.
func (r *Resource) AddObserver(o ResourceObserver) {
	if o == nil {
		return
	}
	if r.obs == nil {
		r.obs = o
		return
	}
	r.obs = teeObserver{a: r.obs, b: o}
}

// teeObserver fans observer callbacks out to two observers.
type teeObserver struct {
	a, b ResourceObserver
}

func (t teeObserver) ResourceHold(r *Resource, label string, queuedAt, grantedAt, releasedAt Time) {
	t.a.ResourceHold(r, label, queuedAt, grantedAt, releasedAt)
	t.b.ResourceHold(r, label, queuedAt, grantedAt, releasedAt)
}

func (t teeObserver) ResourceQueue(r *Resource, depth int, at Time) {
	t.a.ResourceQueue(r, depth, at)
	t.b.ResourceQueue(r, depth, at)
}

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.busy }

// QueueLen returns the number of waiters not yet granted.
func (r *Resource) QueueLen() int { return r.waiters.Len() }

// enqueue queues req behind the hold in flight.
func (r *Resource) enqueue(req grantReq) {
	r.waiters.Push(req)
	if r.obs != nil {
		r.obs.ResourceQueue(r, r.QueueLen(), r.eng.Now())
	}
}

// request grants req at once on an idle resource and queues it otherwise.
func (r *Resource) request(req grantReq) {
	if r.busy {
		r.enqueue(req)
		return
	}
	r.grant(req)
}

// grant starts req's hold and schedules its release. A hook runs here,
// after the resource is marked held, so a request it makes on this
// resource queues behind the hold.
func (r *Resource) grant(req grantReq) {
	r.busy = true
	r.busySince = r.eng.Now()
	r.curLabel = req.label
	r.curQueued = req.at
	r.totalGrants++
	r.curDone = req.done
	d := req.dur
	if req.hold != nil {
		if d = req.hold(); d < 0 {
			panic("sim: negative hold duration for " + r.name)
		}
	}
	r.eng.Schedule(d, r.relStep)
}

// releaseStep ends the hold in flight and runs its completion callback.
// curDone is read before release because release may grant the next
// queued hold, which overwrites the slot.
func (r *Resource) releaseStep() {
	done := r.curDone
	r.curDone = nil
	r.release()
	if done != nil {
		done()
	}
}

// release frees the resource and grants it to the next FIFO waiter, if any.
func (r *Resource) release() {
	if !r.busy {
		panic("sim: release of idle resource " + r.name)
	}
	held := r.eng.Now() - r.busySince
	r.totalBusy += held
	if r.obs != nil {
		r.obs.ResourceHold(r, r.curLabel, r.curQueued, r.busySince, r.eng.Now())
	}
	r.busy = false
	if r.waiters.Len() > 0 {
		next := r.waiters.Pop()
		wait := r.eng.Now() - next.at
		r.totalWait += wait
		if wait > r.maxWait {
			r.maxWait = wait
		}
		if r.obs != nil {
			r.obs.ResourceQueue(r, r.QueueLen(), r.eng.Now())
		}
		r.grant(next)
	}
}

// Use holds the resource for d, then releases it and runs done (which may
// be nil). It is the common "occupy a bus for a serialization time"
// helper.
func (r *Resource) Use(d Time, done func()) { r.UseLabeled(DefaultHoldLabel, d, done) }

// UseLabeled is Use with an observer label for the hold (e.g.
// "read-xfer" on a bus). Labels should be constant strings; they are
// carried by value and never retained. It is the engine's hottest path,
// every bus transfer passes through it, so it is allocation-free and
// costs one event: the hold's duration and done callback ride in the
// grant request, and the grant schedules the release through a
// per-resource method value bound once at construction.
func (r *Resource) UseLabeled(label string, d Time, done func()) {
	if d < 0 {
		panic("sim: negative hold duration for " + r.name)
	}
	r.request(grantReq{at: r.eng.Now(), label: label, dur: d, done: done})
}

// UseGranted is UseLabeled for a hold whose duration is known only at the
// grant: hold runs at the grant instant and returns the duration, which
// must not be negative. The hold is still one event.
func (r *Resource) UseGranted(label string, hold func() Time, done func()) {
	if hold == nil {
		panic("sim: nil hold hook for " + r.name)
	}
	r.request(grantReq{at: r.eng.Now(), label: label, hold: hold, done: done})
}

// TotalBusy returns cumulative held time over completed holds.
func (r *Resource) TotalBusy() Time { return r.totalBusy }

// TotalWait returns the cumulative time grantees spent queued before
// receiving the resource; immediate grants contribute zero.
func (r *Resource) TotalWait() Time { return r.totalWait }

// MaxWait returns the longest single queueing delay observed.
func (r *Resource) MaxWait() Time { return r.maxWait }

// MeanWait returns the average queueing delay over all grants.
func (r *Resource) MeanWait() Time {
	if r.totalGrants == 0 {
		return 0
	}
	return r.totalWait / Time(r.totalGrants)
}

// Utilization returns TotalBusy divided by the elapsed time since zero.
func (r *Resource) Utilization() float64 {
	if r.eng.Now() == 0 {
		return 0
	}
	return float64(r.totalBusy) / float64(r.eng.Now())
}
