package host

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func testFrontend(t *testing.T, cfg FrontendConfig) (*sim.Engine, *Frontend) {
	t.Helper()
	e, h := testHost(t)
	h.Warmup(256)
	fe, err := NewFrontend(h, cfg)
	if err != nil {
		t.Fatalf("NewFrontend: %v", err)
	}
	return e, fe
}

func twoTenants() FrontendConfig {
	return FrontendConfig{
		Tenants: []TenantConfig{
			{Name: "a", Weight: 2},
			{Name: "b", Weight: 1},
		},
		Arbiter:     ArbRR,
		MaxInflight: 2,
	}
}

func TestFrontendConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  FrontendConfig
	}{
		{"no tenants", FrontendConfig{Arbiter: ArbRR}},
		{"bad arbiter", FrontendConfig{Tenants: []TenantConfig{{}}, Arbiter: "lifo"}},
		{"negative inflight", FrontendConfig{Tenants: []TenantConfig{{}}, MaxInflight: -1}},
		{"negative weight", FrontendConfig{Tenants: []TenantConfig{{Weight: -2}}}},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
		}
	}
	if err := twoTenants().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestFrontendEnqueueValidation(t *testing.T) {
	e, fe := testFrontend(t, twoTenants())
	if err := fe.Enqueue(2, Request{Kind: stats.Read, Pages: 1}, nil); err == nil {
		t.Error("out-of-range tenant accepted")
	}
	if err := fe.Enqueue(-1, Request{Kind: stats.Read, Pages: 1}, nil); err == nil {
		t.Error("negative tenant accepted")
	}
	if err := fe.Enqueue(0, Request{Kind: stats.Read, Pages: 0}, nil); err == nil {
		t.Error("zero-page request accepted")
	}
	if err := fe.Enqueue(0, Request{Arrival: sim.Microsecond, Kind: stats.Read, Pages: 1}, nil); err == nil {
		t.Error("future arrival accepted")
	}
	if !fe.Drained() {
		t.Fatal("rejected enqueues left state behind")
	}
	e.Run()
}

func TestFrontendCompletesAndRecordsPerTenant(t *testing.T) {
	e, fe := testFrontend(t, twoTenants())
	done := make([]int, 2)
	for i := 0; i < 10; i++ {
		tenant := i % 2
		if err := fe.Enqueue(tenant, Request{Kind: stats.Read, LPN: int64(i * 4), Pages: 1}, func() { done[tenant]++ }); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	e.Run()
	if done[0] != 5 || done[1] != 5 {
		t.Fatalf("completions = %v, want [5 5]", done)
	}
	tm := fe.Metrics()
	for i := 0; i < 2; i++ {
		if got := tm.Tenants[i].TotalRequests(); got != 5 {
			t.Fatalf("tenant %d metrics recorded %d requests", i, got)
		}
	}
	if !fe.Drained() {
		t.Fatal("front end not drained after run")
	}
	if fe.Grants(0)+fe.Grants(1) != 10 {
		t.Fatalf("grants = %d + %d, want 10", fe.Grants(0), fe.Grants(1))
	}
}

func TestFrontendRespectsMaxInflight(t *testing.T) {
	cfg := twoTenants()
	cfg.MaxInflight = 3
	e, fe := testFrontend(t, cfg)
	maxSeen := 0
	obs := observerFunc{granted: func(_, _ int) {
		if fe.Inflight() > maxSeen {
			maxSeen = fe.Inflight()
		}
	}}
	fe.SetObserver(obs)
	for i := 0; i < 20; i++ {
		fe.Enqueue(i%2, Request{Kind: stats.Read, LPN: int64(i * 2), Pages: 1}, nil)
	}
	e.Run()
	if maxSeen > 3 {
		t.Fatalf("inflight reached %d with cap 3", maxSeen)
	}
	if !fe.Drained() {
		t.Fatal("not drained")
	}
}

// observerFunc adapts closures to FrontendObserver for tests.
type observerFunc struct {
	queued  func(tenant, depth int)
	granted func(tenant, depth int)
	done    func(tenant int)
}

func (o observerFunc) TenantQueued(tenant, depth int) {
	if o.queued != nil {
		o.queued(tenant, depth)
	}
}
func (o observerFunc) TenantGranted(tenant, depth int) {
	if o.granted != nil {
		o.granted(tenant, depth)
	}
}
func (o observerFunc) TenantDone(tenant int) {
	if o.done != nil {
		o.done(tenant)
	}
}

func TestFrontendObserverSequence(t *testing.T) {
	cfg := twoTenants()
	cfg.MaxInflight = 1
	e, fe := testFrontend(t, cfg)
	var queued, granted, completed int
	fe.SetObserver(observerFunc{
		queued:  func(_, _ int) { queued++ },
		granted: func(_, _ int) { granted++ },
		done:    func(_ int) { completed++ },
	})
	for i := 0; i < 6; i++ {
		fe.Enqueue(i%2, Request{Kind: stats.Write, LPN: int64(i), Pages: 1}, nil)
	}
	e.Run()
	if queued != 6 || granted != 6 || completed != 6 {
		t.Fatalf("observer saw queued=%d granted=%d done=%d, want 6 each", queued, granted, completed)
	}
}

func TestFrontendSLOAccounting(t *testing.T) {
	cfg := twoTenants()
	// An SLO far below any physically possible latency: every read
	// violates; an SLO far above: none do.
	cfg.Tenants[0].SLO[stats.Read] = 1 // 1 ps
	cfg.Tenants[1].SLO[stats.Read] = sim.Second
	e, fe := testFrontend(t, cfg)
	for i := 0; i < 4; i++ {
		fe.Enqueue(i%2, Request{Kind: stats.Read, LPN: int64(i), Pages: 1}, nil)
	}
	e.Run()
	tm := fe.Metrics()
	if v := tm.Tenants[0].SLOViolations(); v != 2 {
		t.Fatalf("tenant a: %d violations, want 2", v)
	}
	if v := tm.Tenants[1].SLOViolations(); v != 0 {
		t.Fatalf("tenant b: %d violations, want 0", v)
	}
}

func TestFrontendReplayRoutesByTenant(t *testing.T) {
	e, fe := testFrontend(t, twoTenants())
	reqs := []Request{
		{Arrival: 10 * sim.Microsecond, Kind: stats.Read, LPN: 0, Pages: 1, Tenant: 0},
		{Arrival: 20 * sim.Microsecond, Kind: stats.Write, LPN: 4, Pages: 1, Tenant: 1},
		{Arrival: 30 * sim.Microsecond, Kind: stats.Read, LPN: 8, Pages: 1, Tenant: 1},
	}
	completed, err := fe.Replay(reqs)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	e.Run()
	if completions(completed) != 3 {
		t.Fatalf("completed %d of 3", completions(completed))
	}
	if fe.Grants(0) != 1 || fe.Grants(1) != 2 {
		t.Fatalf("grants = [%d %d], want [1 2]", fe.Grants(0), fe.Grants(1))
	}
	// Latency is measured from arrival.
	if got := fe.Metrics().Tenants[0].FirstArrival; got != 10*sim.Microsecond {
		t.Fatalf("tenant a first arrival = %v", got)
	}
}

func TestFrontendReplayRejectsBadTrace(t *testing.T) {
	cases := []struct {
		name string
		reqs []Request
	}{
		{"bad tenant", []Request{{Arrival: 1, Kind: stats.Read, Pages: 1, Tenant: 5}}},
		{"negative tenant", []Request{{Arrival: 1, Kind: stats.Read, Pages: 1, Tenant: -1}}},
		{"zero pages", []Request{{Arrival: 1, Kind: stats.Read, Pages: 0}}},
		{"past arrival", []Request{{Arrival: -1, Kind: stats.Read, Pages: 1}}},
	}
	for _, tc := range cases {
		e, fe := testFrontend(t, twoTenants())
		if _, err := fe.Replay(tc.reqs); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if e.Pending() != 0 {
			t.Errorf("%s: rejected replay scheduled events", tc.name)
		}
	}
}

// TestFrontendUnlimitedInflightIsTransparent: with MaxInflight 0 every
// command dispatches at enqueue, so the wrapped host sees the same
// submission sequence as direct Host.Replay — the single-tenant
// equivalence property (asserted device-wide in internal/ssd).
func TestFrontendUnlimitedInflightIsTransparent(t *testing.T) {
	reqs := []Request{
		{Arrival: 10 * sim.Microsecond, Kind: stats.Read, LPN: 0, Pages: 1},
		{Arrival: 12 * sim.Microsecond, Kind: stats.Write, LPN: 8, Pages: 2},
		{Arrival: 15 * sim.Microsecond, Kind: stats.Read, LPN: 16, Pages: 1},
	}

	eDirect, hDirect := testHost(t)
	hDirect.Warmup(256)
	hDirect.MustReplay(reqs)
	eDirect.Run()

	eFe, fe := testFrontend(t, FrontendConfig{Tenants: []TenantConfig{{Name: "only"}}})
	if _, err := fe.Replay(reqs); err != nil {
		t.Fatalf("frontend replay: %v", err)
	}
	eFe.Run()

	if a, b := eDirect.EventsFired(), eFe.EventsFired(); a != b {
		t.Fatalf("event counts diverge: direct %d, frontend %d", a, b)
	}
	if a, b := hDirect.Metrics().MeanLatency(), fe.h.Metrics().MeanLatency(); a != b {
		t.Fatalf("latency diverges: direct %v, frontend %v", a, b)
	}
}
