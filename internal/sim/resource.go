package sim

// Resource is a unit-capacity server with FIFO admission. It models any
// hardware element that serves one occupant at a time: a bus channel, a
// flash die, a DRAM port. It is held two ways:
//
//   - A timed hold (Use/UseLabeled) occupies it for a known duration. The
//     grant schedules the release directly, so the whole hold is one
//     event: at its end the resource is released and done runs.
//   - An open hold (Acquire/AcquireLabeled) is for a holder that learns
//     its duration only once granted. The grant callback runs as a fresh
//     event (never re-entrantly inside Acquire or Release), so model
//     code can treat it as happening "next", and the holder must call
//     Release when done.
type Resource struct {
	eng  *Engine
	name string
	busy bool
	// waiters[head:] are the queued requests, oldest first. Popped slots
	// are zeroed, and the live entries slide to the front only when an
	// append finds the slice full, so a grant is O(1) like the engine's
	// same-instant lane.
	waiters []grantReq
	head    int

	// accounting
	busySince   Time
	totalBusy   Time
	totalGrants int64
	totalWait   Time
	maxWait     Time
	obs         ResourceObserver
	curLabel    string
	curQueued   Time

	// Timed-hold fast path: the grant schedules relStep, a method value
	// bound once at construction, so a hold builds no closure. curDone is
	// the completion callback of the timed hold in flight; unit capacity
	// means at most one is active, so one slot suffices. Queued timed
	// holds carry their duration and callback in their grantReq.
	curDone func()
	relStep func() // bound r.timedReleaseStep
}

// ResourceObserver receives passive notifications about a resource's
// occupancy and queue, the hook the tracing subsystem attaches to. All
// callbacks fire synchronously inside Acquire/Release; implementations
// must only record — scheduling events or touching model state from an
// observer would perturb the simulation it is observing.
type ResourceObserver interface {
	// ResourceHold reports one completed hold: the holder enqueued at
	// queuedAt, was granted at grantedAt (equal to queuedAt for immediate
	// grants), and released at releasedAt.
	ResourceHold(r *Resource, label string, queuedAt, grantedAt, releasedAt Time)
	// ResourceQueue reports the waiter-queue depth after it changed.
	ResourceQueue(r *Resource, depth int, at Time)
}

type grantReq struct {
	fn    func()
	at    Time
	label string
	// timed marks a Use/UseLabeled hold: fn is nil and the hold runs for
	// dur, then releases and calls done (which may be nil).
	timed bool
	dur   Time
	done  func()
}

// DefaultHoldLabel names holds acquired without an explicit label.
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
		r.relStep = r.timedReleaseStep
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
func (r *Resource) QueueLen() int { return len(r.waiters) - r.head }

// Acquire requests the resource. When granted, fn runs as its own event; the
// holder must eventually call Release.
func (r *Resource) Acquire(fn func()) { r.AcquireLabeled(DefaultHoldLabel, fn) }

// AcquireLabeled is Acquire with a label naming the hold for observers
// (e.g. "read-xfer" on a bus, "program" on a die). Labels should be
// constant strings; they are carried by value and never retained.
func (r *Resource) AcquireLabeled(label string, fn func()) {
	if fn == nil {
		panic("sim: nil acquire callback for " + r.name)
	}
	if !r.busy {
		r.grant(grantReq{fn: fn, at: r.eng.Now(), label: label})
		return
	}
	r.enqueue(grantReq{fn: fn, at: r.eng.Now(), label: label})
}

// enqueue appends a waiter, first sliding the live entries to the front
// when the slice is full and popped slots sit before them.
func (r *Resource) enqueue(req grantReq) {
	if r.head > 0 && len(r.waiters) == cap(r.waiters) {
		n := copy(r.waiters, r.waiters[r.head:])
		clear(r.waiters[n:])
		r.waiters, r.head = r.waiters[:n], 0
	}
	r.waiters = append(r.waiters, req)
	if r.obs != nil {
		r.obs.ResourceQueue(r, r.QueueLen(), r.eng.Now())
	}
}

// TryAcquire acquires the resource only if it is idle and has no waiters,
// reporting success. On success fn is scheduled exactly as with Acquire.
func (r *Resource) TryAcquire(fn func()) bool {
	if r.busy || r.QueueLen() > 0 {
		return false
	}
	r.grant(grantReq{fn: fn, at: r.eng.Now(), label: DefaultHoldLabel})
	return true
}

func (r *Resource) grant(req grantReq) {
	r.busy = true
	r.busySince = r.eng.Now()
	r.curLabel = req.label
	r.curQueued = req.at
	r.totalGrants++
	if req.timed {
		r.curDone = req.done
		r.eng.Schedule(req.dur, r.relStep)
		return
	}
	r.eng.Schedule(0, req.fn)
}

// timedReleaseStep releases a timed hold and runs its completion
// callback. curDone is read before Release because Release may grant the
// next queued timed hold, which overwrites the slot.
func (r *Resource) timedReleaseStep() {
	done := r.curDone
	r.curDone = nil
	r.Release()
	if done != nil {
		done()
	}
}

// Release frees the resource and grants it to the next FIFO waiter, if any.
func (r *Resource) Release() {
	if !r.busy {
		panic("sim: release of idle resource " + r.name)
	}
	held := r.eng.Now() - r.busySince
	r.totalBusy += held
	if r.obs != nil {
		r.obs.ResourceHold(r, r.curLabel, r.curQueued, r.busySince, r.eng.Now())
	}
	r.busy = false
	if h := r.head; h < len(r.waiters) {
		next := r.waiters[h]
		r.waiters[h] = grantReq{}
		if h+1 == len(r.waiters) {
			r.waiters, r.head = r.waiters[:0], 0
		} else {
			r.head = h + 1
		}
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

// Use acquires the resource, holds it for d, then releases it and runs done
// (which may be nil). It is the common "occupy a bus for a serialization
// time" helper.
func (r *Resource) Use(d Time, done func()) { r.UseLabeled(DefaultHoldLabel, d, done) }

// UseLabeled is Use with an observer label for the hold. It is the
// engine's hottest path — every bus transfer and flash program or erase
// passes through it — so it is allocation-free and costs one event: the hold's
// duration and done callback ride in the grant request, and the grant
// schedules the release through a per-resource method value bound once at
// construction.
func (r *Resource) UseLabeled(label string, d Time, done func()) {
	if d < 0 {
		panic("sim: negative hold duration for " + r.name)
	}
	if !r.busy {
		r.grant(grantReq{at: r.eng.Now(), label: label, timed: true, dur: d, done: done})
		return
	}
	r.enqueue(grantReq{at: r.eng.Now(), label: label, timed: true, dur: d, done: done})
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
