package host

import (
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
	id, addr, ok := h.FTL().Map(5)
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
