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
	eng     *Engine
	name    string
	busy    bool
	waiters []grantReq

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
	r := &Resource{eng: eng, name: name}
	r.relStep = r.timedReleaseStep
	return r
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
func (r *Resource) QueueLen() int { return len(r.waiters) }

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
	r.waiters = append(r.waiters, grantReq{fn: fn, at: r.eng.Now(), label: label})
	if r.obs != nil {
		r.obs.ResourceQueue(r, len(r.waiters), r.eng.Now())
	}
}

// TryAcquire acquires the resource only if it is idle and has no waiters,
// reporting success. On success fn is scheduled exactly as with Acquire.
func (r *Resource) TryAcquire(fn func()) bool {
	if r.busy || len(r.waiters) > 0 {
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
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters = r.waiters[:len(r.waiters)-1]
		wait := r.eng.Now() - next.at
		r.totalWait += wait
		if wait > r.maxWait {
			r.maxWait = wait
		}
		if r.obs != nil {
			r.obs.ResourceQueue(r, len(r.waiters), r.eng.Now())
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
	r.waiters = append(r.waiters, grantReq{at: r.eng.Now(), label: label, timed: true, dur: d, done: done})
	if r.obs != nil {
		r.obs.ResourceQueue(r, len(r.waiters), r.eng.Now())
	}
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
