package stats

import (
	"testing"

	"repro/internal/sim"
)

const tus = sim.Microsecond

// TestTenantSetRecordAndSLO drives two tenants with distinct targets
// and checks metrics isolation and per-kind SLO accounting.
func TestTenantSetRecordAndSLO(t *testing.T) {
	s := NewTenantSet([]string{"reader", "writer"})
	if len(s.Tenants) != 2 {
		t.Fatalf("%d tenants", len(s.Tenants))
	}
	s.SetSLO(0, Read, 10*tus) // reads over 10us violate
	// Writer has no targets: nothing it does can violate.

	s.Record(0, Read, 0, 5*tus, 4096)   // within SLO
	s.Record(0, Read, 0, 10*tus, 4096)  // exactly on target: not a miss
	s.Record(0, Read, 0, 11*tus, 4096)  // miss
	s.Record(0, Write, 0, 99*tus, 4096) // no write target: never a miss
	s.Record(1, Write, 0, 500*tus, 8192)

	reader, writer := s.Tenants[0], s.Tenants[1]
	if reader.Name != "reader" || writer.Name != "writer" {
		t.Fatalf("names %q %q", reader.Name, writer.Name)
	}
	if got := reader.SLOViolations(); got != 1 {
		t.Fatalf("reader SLO violations %d, want 1", got)
	}
	if got := writer.SLOViolations(); got != 0 {
		t.Fatalf("writer SLO violations %d, want 0", got)
	}
	if reader.Violations[Read] != 1 || reader.Violations[Write] != 0 {
		t.Fatalf("reader per-kind violations %v", reader.Violations)
	}
	// Metrics are isolated per tenant.
	if n := reader.TotalRequests(); n != 4 {
		t.Fatalf("reader requests %d", n)
	}
	if n := writer.TotalRequests(); n != 1 {
		t.Fatalf("writer requests %d", n)
	}
	if lat := writer.Combined().Max(); lat != 500*tus {
		t.Fatalf("writer max latency %v", lat)
	}
}

// TestTenantMetricsP999 checks a tenant's combined p99.9 against a known
// distribution: 999 fast requests and one slow outlier put p99.9 at the
// outlier's bucket.
func TestTenantMetricsP999(t *testing.T) {
	s := NewTenantSet([]string{"only"})
	for i := 0; i < 999; i++ {
		s.Record(0, Read, 0, 10*tus, 4096)
	}
	s.Record(0, Read, 0, 1000*tus, 4096)
	p999 := s.Tenants[0].Combined().Percentile(99.9)
	if p999 < 900*tus {
		t.Fatalf("p99.9 %v does not reach the outlier", p999)
	}
	if p50 := s.Tenants[0].Combined().Median(); p50 > 12*tus {
		t.Fatalf("median %v pulled up by the outlier", p50)
	}
}

// TestTenantMetricsString smoke-checks the log form carries the name
// and violation count.
func TestTenantMetricsString(t *testing.T) {
	s := NewTenantSet([]string{"t0"})
	s.SetSLO(0, Write, tus)
	s.Record(0, Write, 0, 2*tus, 1)
	got := s.Tenants[0].String()
	if len(got) == 0 || got[:3] != "t0:" {
		t.Fatalf("String %q", got)
	}
	if want := "slo-viol=1"; !contains(got, want) {
		t.Fatalf("String %q misses %q", got, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
