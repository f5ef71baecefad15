package host

import (
	"slices"
	"testing"

	"repro/internal/controller"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/sim"
	"repro/internal/stats"
)

func testHost(t *testing.T) (*sim.Engine, *Host) {
	t.Helper()
	e := sim.NewEngine()
	geo := flash.Geometry{Planes: 2, BlocksPerPlane: 8, PagesPerBlock: 8, PageSize: 4096}
	g := controller.NewGrid(e, 2, 2, geo, flash.ULLTiming())
	soc := controller.NewSoc(e, 8000, 8000)
	fab := controller.NewOmnibusFabric(e, "base", g, soc, geo.PageSize, 8, 0, 1000, false, false)
	cfg := ftl.DefaultConfig()
	cfg.GCMode = ftl.GCNone
	f := ftl.New(e, fab, cfg, 256)
	return e, New(e, f, geo.PageSize, 8000)
}

func TestSubmitReadRecordsLatency(t *testing.T) {
	e, h := testHost(t)
	h.Warmup(64)
	done := false
	h.Submit(Request{Kind: stats.Read, LPN: 3, Pages: 2}, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("read never completed")
	}
	m := h.Metrics()
	if m.Requests[stats.Read] != 1 {
		t.Fatalf("read count = %d", m.Requests[stats.Read])
	}
	lat := m.Latency[stats.Read].Mean()
	// Must include at least cmd latency + tR + channel transfer.
	if lat < 5*sim.Microsecond || lat > 100*sim.Microsecond {
		t.Fatalf("read latency = %v, outside sane range", lat)
	}
	if m.Bytes[stats.Read] != 8192 {
		t.Fatalf("read bytes = %d", m.Bytes[stats.Read])
	}
}

func TestSubmitWriteUpdatesVersion(t *testing.T) {
	e, h := testHost(t)
	h.Warmup(64)
	h.Submit(Request{Kind: stats.Write, LPN: 5, Pages: 1}, nil)
	e.Run()
	id, addr, ok := h.f.Map(5)
	if !ok {
		t.Fatal("LPN 5 unmapped after write")
	}
	// Version 1 token must be stored (warmup wrote version 0).
	_ = id
	_ = addr
	h.Submit(Request{Kind: stats.Write, LPN: 5, Pages: 1}, nil)
	e.Run()
	if h.Metrics().Requests[stats.Write] != 2 {
		t.Fatal("write count wrong")
	}
}

func TestRequestWrapsFootprint(t *testing.T) {
	e, h := testHost(t)
	h.Warmup(256)
	done := false
	// Request starting at the last LPN wraps to 0.
	h.Submit(Request{Kind: stats.Read, LPN: 255, Pages: 2}, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("wrapping read never completed")
	}
}

func TestReplayOpenLoop(t *testing.T) {
	e, h := testHost(t)
	h.Warmup(64)
	reqs := []Request{
		{Arrival: 10 * sim.Microsecond, Kind: stats.Read, LPN: 0, Pages: 1},
		{Arrival: 20 * sim.Microsecond, Kind: stats.Write, LPN: 1, Pages: 1},
		{Arrival: 30 * sim.Microsecond, Kind: stats.Read, LPN: 2, Pages: 1},
	}
	completed, err := h.Replay(reqs)
	if err != nil {
		t.Fatalf("replay rejected: %v", err)
	}
	e.Run()
	if completions(completed) != 3 {
		t.Fatalf("completed = %d", completions(completed))
	}
	if h.Metrics().TotalRequests() != 3 {
		t.Fatal("metrics missing requests")
	}
	// Latency is measured from arrival, not submission.
	if h.Metrics().FirstArrival != 10*sim.Microsecond {
		t.Fatalf("first arrival = %v", h.Metrics().FirstArrival)
	}
}

// completions counts the requests of a replay that completed.
func completions(times []sim.Time) int {
	n := 0
	for _, at := range times {
		if at >= 0 {
			n++
		}
	}
	return n
}

// Replay must report one completion time per request, ordered like the
// input trace, each at or after its arrival and consistent with the
// aggregate metrics.
func TestReplayTimedReportsPerRequestCompletions(t *testing.T) {
	e, h := testHost(t)
	h.Warmup(64)
	reqs := []Request{
		{Arrival: 10 * sim.Microsecond, Kind: stats.Read, LPN: 0, Pages: 1},
		{Arrival: 20 * sim.Microsecond, Kind: stats.Write, LPN: 1, Pages: 1},
		{Arrival: 30 * sim.Microsecond, Kind: stats.Read, LPN: 2, Pages: 1},
	}
	times, err := h.Replay(reqs)
	if err != nil {
		t.Fatalf("replay rejected: %v", err)
	}
	for i, at := range times {
		if at != -1 {
			t.Fatalf("request %d completed (%v) before the engine ran", i, at)
		}
	}
	e.Run()
	for i, at := range times {
		if at < reqs[i].Arrival {
			t.Fatalf("request %d completed at %v before arrival %v", i, at, reqs[i].Arrival)
		}
	}
	if h.Metrics().TotalRequests() != 3 {
		t.Fatal("metrics missing requests")
	}
	bad := []Request{{Arrival: -1, Kind: stats.Read, LPN: 0, Pages: 1}}
	if _, err := h.Replay(bad); err == nil {
		t.Fatal("malformed trace accepted")
	}
}

func TestRunClosedLoopMaintainsOutstanding(t *testing.T) {
	e, h := testHost(t)
	h.Warmup(64)
	maxSeen := 0
	gen := func(i int) Request {
		if h.InFlight() > maxSeen {
			maxSeen = h.InFlight()
		}
		return Request{Kind: stats.Read, LPN: int64(i % 64), Pages: 1}
	}
	h.RunClosedLoop(gen, 4, 40)
	e.Run()
	if h.Metrics().TotalRequests() != 40 {
		t.Fatalf("completed %d of 40", h.Metrics().TotalRequests())
	}
	if maxSeen > 4 {
		t.Fatalf("outstanding exceeded limit: %d", maxSeen)
	}
	if h.InFlight() != 0 {
		t.Fatal("requests leaked")
	}
}

func TestClosedLoopMoreOutstandingMoreThroughput(t *testing.T) {
	run := func(outstanding int) float64 {
		e, h := testHost(t)
		h.Warmup(256)
		h.RunClosedLoop(func(i int) Request {
			return Request{Kind: stats.Read, LPN: int64((i * 7) % 250), Pages: 1}
		}, outstanding, 100)
		e.Run()
		return h.Metrics().KIOPS()
	}
	k1 := run(1)
	k8 := run(8)
	if k8 <= k1 {
		t.Fatalf("no throughput gain from parallelism: 1->%.1f 8->%.1f KIOPS", k1, k8)
	}
}

func TestSubmitInvalidReturnsError(t *testing.T) {
	e, h := testHost(t)
	h.Warmup(8)
	cases := []struct {
		name string
		req  Request
	}{
		{"zero pages", Request{Kind: stats.Read, LPN: 0, Pages: 0}},
		{"negative pages", Request{Kind: stats.Read, LPN: 0, Pages: -3}},
		{"unknown kind", Request{Kind: stats.IOKind(7), LPN: 0, Pages: 1}},
		{"future arrival", Request{Arrival: 5 * sim.Microsecond, Kind: stats.Read, LPN: 0, Pages: 1}},
	}
	for _, tc := range cases {
		if err := h.Submit(tc.req, nil); err == nil {
			t.Errorf("%s: Submit accepted invalid request %+v", tc.name, tc.req)
		}
	}
	// Rejections must not schedule anything or count as in flight.
	if h.InFlight() != 0 {
		t.Fatalf("rejected requests left %d in flight", h.InFlight())
	}
	if n := e.Run(); n != 0 {
		t.Fatalf("rejected requests scheduled events (drained at %v)", n)
	}
	if h.Metrics().TotalRequests() != 0 {
		t.Fatal("rejected requests recorded metrics")
	}
}

func TestReplayRejectsMalformedTrace(t *testing.T) {
	good := Request{Arrival: 10 * sim.Microsecond, Kind: stats.Read, LPN: 0, Pages: 1}
	cases := []struct {
		name string
		reqs []Request
	}{
		{"zero pages", []Request{good, {Arrival: 20 * sim.Microsecond, Kind: stats.Read, Pages: 0}}},
		{"unknown kind", []Request{good, {Arrival: 20 * sim.Microsecond, Kind: stats.IOKind(9), Pages: 1}}},
		{"arrival in the past", []Request{{Arrival: -1, Kind: stats.Read, Pages: 1}}},
	}
	for _, tc := range cases {
		e, h := testHost(t)
		h.Warmup(64)
		if _, err := h.Replay(tc.reqs); err == nil {
			t.Errorf("%s: Replay accepted malformed trace", tc.name)
		}
		// A rejected trace must schedule nothing — not even its valid rows.
		if e.Pending() != 0 {
			t.Errorf("%s: rejected replay left %d events scheduled", tc.name, e.Pending())
		}
	}
}

func TestReplayPastArrivalAfterAdvance(t *testing.T) {
	e, h := testHost(t)
	h.Warmup(64)
	h.Submit(Request{Kind: stats.Read, LPN: 0, Pages: 1}, nil)
	e.Run() // clock is now past zero
	if _, err := h.Replay([]Request{{Arrival: 0, Kind: stats.Read, Pages: 1}}); err == nil {
		t.Fatal("Replay accepted an arrival earlier than the current clock")
	}
}

func TestMustReplayPanicsOnBadTrace(t *testing.T) {
	_, h := testHost(t)
	h.Warmup(64)
	defer func() {
		if recover() == nil {
			t.Fatal("MustReplay did not panic on a malformed trace")
		}
	}()
	h.MustReplay([]Request{{Kind: stats.Read, Pages: 0}})
}

// tiedTrace is an unsorted open-loop trace with tied arrivals, one of
// them at the replay instant itself. Its requests are pairwise distinct,
// so a submission identifies its index; Tenant alternates for the
// two-tenant Frontend, and the single-queue Host ignores it.
func tiedTrace() []Request {
	us := sim.Microsecond
	return []Request{
		{Arrival: 30 * us, Kind: stats.Read, LPN: 2, Pages: 1, Tenant: 0},
		{Arrival: 10 * us, Kind: stats.Write, LPN: 5, Pages: 2, Tenant: 1},
		{Arrival: 30 * us, Kind: stats.Write, LPN: 2, Pages: 1, Tenant: 0},
		{Arrival: 10 * us, Kind: stats.Read, LPN: 5, Pages: 1, Tenant: 1},
		{Arrival: 0, Kind: stats.Read, LPN: 9, Pages: 1, Tenant: 0},
		{Arrival: 30 * us, Kind: stats.Read, LPN: 7, Pages: 3, Tenant: 1},
		{Arrival: 10 * us, Kind: stats.Write, LPN: 5, Pages: 1, Tenant: 0},
	}
}

// replayRig is a fresh device behind one of the two replay entry points.
type replayRig struct {
	eng     *sim.Engine
	replay  func([]Request) ([]sim.Time, error)
	submit  func(Request, func()) error
	metrics *stats.IOMetrics
}

func newReplayRig(t *testing.T, frontend bool) replayRig {
	if !frontend {
		e, h := testHost(t)
		h.Warmup(64)
		return replayRig{e, h.Replay, h.Submit, h.Metrics()}
	}
	e, fe := testFrontend(t, twoTenants())
	return replayRig{e, fe.Replay, func(r Request, done func()) error {
		return fe.Enqueue(r.Tenant, r, done)
	}, fe.h.Metrics()}
}

// atLoopReplay is the reference schedule: one At closure per request,
// which is how replay scheduled a trace before it used an AtEach stream.
func atLoopReplay(eng *sim.Engine, reqs []Request, submit func(Request, func()) error) []sim.Time {
	times := make([]sim.Time, len(reqs))
	for i, r := range reqs {
		times[i] = -1
		eng.At(r.Arrival, func() {
			if err := submit(r, func() { times[i] = eng.Now() }); err != nil {
				panic(err)
			}
		})
	}
	return times
}

// TestReplayTiesFireInIndexOrder: replay submits an unsorted trace by
// arrival with ties in index order, and fills the same completion times
// after the same number of events as the one-At-per-request reference,
// on the Host and on the Frontend.
func TestReplayTiesFireInIndexOrder(t *testing.T) {
	trace := tiedTrace()
	want := []int{4, 1, 3, 6, 0, 2, 5}
	for _, frontend := range []bool{false, true} {
		run := func(sched func(*sim.Engine, func(Request, func()) error) []sim.Time) ([]int, []sim.Time, int64) {
			rig := newReplayRig(t, frontend)
			var order []int
			times := sched(rig.eng, func(r Request, done func()) error {
				order = append(order, slices.Index(trace, r))
				return rig.submit(r, done)
			})
			rig.eng.Run()
			return order, times, rig.eng.EventsFired()
		}
		order, times, fired := run(func(e *sim.Engine, submit func(Request, func()) error) []sim.Time {
			times, err := replay(e, trace, nil, submit)
			if err != nil {
				t.Fatal(err)
			}
			return times
		})
		refOrder, refTimes, refFired := run(func(e *sim.Engine, submit func(Request, func()) error) []sim.Time {
			return atLoopReplay(e, trace, submit)
		})
		if !slices.Equal(order, want) || !slices.Equal(refOrder, want) {
			t.Fatalf("frontend=%v: submission order %v (reference %v), want %v", frontend, order, refOrder, want)
		}
		if !slices.Equal(times, refTimes) || fired != refFired {
			t.Fatalf("frontend=%v: completions %v after %d events, reference %v after %d",
				frontend, times, fired, refTimes, refFired)
		}
		if completions(times) != len(trace) {
			t.Fatalf("frontend=%v: %d of %d requests completed", frontend, completions(times), len(trace))
		}
	}
}

// TestReplayCopiesTrace: once Replay returns, the caller may rewrite its
// slice; the run replays the trace as it was at the call, through the
// Host and through the Frontend.
func TestReplayCopiesTrace(t *testing.T) {
	for _, frontend := range []bool{false, true} {
		run := func(mutate bool) ([]sim.Time, int64, sim.Time) {
			rig := newReplayRig(t, frontend)
			trace := tiedTrace()
			times, err := rig.replay(trace)
			if err != nil {
				t.Fatal(err)
			}
			if mutate {
				for i := range trace {
					trace[i].Arrival += 7 * sim.Microsecond
					trace[i].Kind = stats.Write
					trace[i].LPN += 11
					trace[i].Pages = 4
					trace[i].Tenant = 1 - trace[i].Tenant
				}
			}
			rig.eng.Run()
			return times, rig.eng.EventsFired(), rig.metrics.MeanLatency()
		}
		times, fired, mean := run(false)
		mTimes, mFired, mMean := run(true)
		if !slices.Equal(times, mTimes) || fired != mFired || mean != mMean {
			t.Fatalf("frontend=%v: rewriting the caller's trace changed the run: times %v vs %v, events %d vs %d, mean %v vs %v",
				frontend, mTimes, times, mFired, fired, mMean, mean)
		}
	}
}

// replayAllocsMax bounds allocations per replayed read once the read
// path's free lists are warm. Measured: 1.027 over a 256-request batch,
// the completion callback that Submit's done contract needs plus the
// per-replay trace copy, completion slice and arrival stream spread over
// the batch. The one-At-closure-per-request schedule it replaced
// measured 3.008: the arrival closure and the Request it captured by
// reference on top.
const replayAllocsMax = 1.1

// TestReplayAllocsPerRequest pins the allocations of open-loop replay on
// the allocation-free read path, so a per-arrival closure cannot return
// unnoticed.
func TestReplayAllocsPerRequest(t *testing.T) {
	const n = 256
	e, h := testHost(t)
	h.Warmup(64)
	batch := make([]Request, n)
	replayBatch := func() {
		for i := range batch {
			batch[i] = Request{Arrival: e.Now() + sim.Time(i)*sim.Microsecond, Kind: stats.Read, LPN: int64(i % 64), Pages: 1}
		}
		h.MustReplay(batch)
		e.Run()
	}
	replayBatch() // fill the read path's free lists
	if perReq := testing.AllocsPerRun(4, replayBatch) / n; perReq > replayAllocsMax {
		t.Fatalf("%.3f allocations per replayed request, want <= %v", perReq, replayAllocsMax)
	}
}
