package stats

import (
	"fmt"

	"repro/internal/sim"
)

// TenantMetrics aggregates one tenant's I/O outcomes: the standard
// latency/volume metrics plus service-level-objective accounting
// against per-kind latency targets (0 = no target for that kind).
type TenantMetrics struct {
	Name string
	IOMetrics
	SLO        [2]sim.Time // per IOKind latency target; 0 disables
	Violations [2]int64    // completions over the kind's target
}

// SLOViolations returns the total SLO misses across kinds.
func (t *TenantMetrics) SLOViolations() int64 {
	return t.Violations[Read] + t.Violations[Write]
}

// String summarizes the tenant for logs.
func (t *TenantMetrics) String() string {
	return fmt.Sprintf("%s: %v slo-viol=%d", t.Name, t.IOMetrics.String(), t.SLOViolations())
}

// TenantSet holds per-tenant metrics for one multi-queue run, indexed
// by tenant ID (= submission queue index).
type TenantSet struct {
	Tenants []*TenantMetrics
}

// NewTenantSet builds one TenantMetrics per name.
func NewTenantSet(names []string) *TenantSet {
	s := &TenantSet{Tenants: make([]*TenantMetrics, len(names))}
	for i, name := range names {
		s.Tenants[i] = &TenantMetrics{Name: name, IOMetrics: *NewIOMetrics()}
	}
	return s
}

// SetSLO installs a tenant's per-kind latency target; 0 disables the
// kind's accounting.
func (s *TenantSet) SetSLO(tenant int, kind IOKind, target sim.Time) {
	s.Tenants[tenant].SLO[kind] = target
}

// Record logs one completed request for a tenant, tallying an SLO
// violation when the kind has a target and the latency exceeds it.
func (s *TenantSet) Record(tenant int, kind IOKind, arrival, complete sim.Time, bytes int64) {
	t := s.Tenants[tenant]
	t.IOMetrics.Record(kind, arrival, complete, bytes)
	if target := t.SLO[kind]; target > 0 && complete-arrival > target {
		t.Violations[kind]++
	}
}
