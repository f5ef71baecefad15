package stats

import (
	"testing"

	"repro/internal/sim"
)

func TestIOMetricsRecord(t *testing.T) {
	m := NewIOMetrics()
	m.Record(Read, 0, 10*sim.Microsecond, 4096)
	m.Record(Write, 5*sim.Microsecond, 55*sim.Microsecond, 8192)
	if m.TotalRequests() != 2 || m.Requests[Read] != 1 || m.Requests[Write] != 1 {
		t.Fatalf("request counts wrong: %+v", m.Requests)
	}
	if m.TotalBytes() != 12288 {
		t.Fatalf("TotalBytes = %d", m.TotalBytes())
	}
	if m.Latency[Read].Mean() != 10*sim.Microsecond {
		t.Fatalf("read mean = %v", m.Latency[Read].Mean())
	}
	if m.Latency[Write].Mean() != 50*sim.Microsecond {
		t.Fatalf("write mean = %v", m.Latency[Write].Mean())
	}
	if m.Span() != 55*sim.Microsecond {
		t.Fatalf("Span = %v, want 55us", m.Span())
	}
}

func TestIOMetricsKIOPS(t *testing.T) {
	m := NewIOMetrics()
	// 1000 requests over 1ms => 1,000,000 IOPS => 1000 KIOPS.
	for i := 0; i < 1000; i++ {
		at := sim.Time(i) * sim.Microsecond
		m.Record(Read, at, at+sim.Microsecond, 4096)
	}
	span := m.Span() // 1000us
	if span != 1000*sim.Microsecond {
		t.Fatalf("span = %v", span)
	}
	got := m.KIOPS()
	if got < 999 || got > 1001 {
		t.Fatalf("KIOPS = %v, want ~1000", got)
	}
}

func TestIOMetricsBandwidth(t *testing.T) {
	m := NewIOMetrics()
	// 16 MB over 16 ms => 1000 MB/s.
	for i := 0; i < 1024; i++ {
		at := sim.Time(i) * 16 * sim.Microsecond
		m.Record(Write, at, at+16*sim.Microsecond, 16384)
	}
	got := m.BandwidthMBps()
	if got < 990 || got > 1030 {
		t.Fatalf("BandwidthMBps = %v, want ~1000", got)
	}
}

func TestIOMetricsCombined(t *testing.T) {
	m := NewIOMetrics()
	m.Record(Read, 0, 10, 1)
	m.Record(Write, 0, 30, 1)
	c := m.Combined()
	if c.Count() != 2 || c.Mean() != 20 {
		t.Fatalf("combined: count=%d mean=%v", c.Count(), c.Mean())
	}
}

func TestIOMetricsInvalidCompletion(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("completion before arrival did not panic")
		}
	}()
	NewIOMetrics().Record(Read, 10, 5, 1)
}

func TestIOKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("IOKind strings wrong")
	}
}

func TestUtilMatrixRows(t *testing.T) {
	m := NewUtilMatrix(2, 10)
	m.Recorders[0].AddBusy(0, 10) // window 0 fully busy on ch0
	m.Recorders[1].AddBusy(10, 15)
	rows := m.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if len(rows[0]) != len(rows[1]) {
		t.Fatal("rows not padded to equal width")
	}
	if rows[0][0] != 1.0 || rows[1][1] != 0.5 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestUtilMatrixImbalance(t *testing.T) {
	balanced := NewUtilMatrix(4, 10)
	for _, r := range balanced.Recorders {
		r.AddBusy(0, 10)
	}
	if got := balanced.ImbalanceIndex(); got != 1.0 {
		t.Fatalf("balanced imbalance = %v, want 1.0", got)
	}

	skewed := NewUtilMatrix(4, 10)
	skewed.Recorders[0].AddBusy(0, 10) // only one channel busy
	got := skewed.ImbalanceIndex()
	if got != 4.0 {
		t.Fatalf("skewed imbalance = %v, want 4.0 (max/mean with 1-of-4 busy)", got)
	}

	empty := NewUtilMatrix(4, 10)
	if got := empty.ImbalanceIndex(); got != 1.0 {
		t.Fatalf("empty imbalance = %v, want 1.0", got)
	}
}

// The matrix is fed as an ordinary resource observer: each completed
// hold is credited over [grantedAt, releasedAt), queue wait excluded.
func TestUtilMatrixObservesResource(t *testing.T) {
	e := sim.NewEngine()
	r := sim.NewResource(e, "ch")
	m := NewUtilMatrix(1, 100)
	r.AddObserver(m.Observer(0))
	r.Use(50, nil)  // [0,50)
	r.Use(100, nil) // queued at 0, held [50,150)
	e.Run()
	rows := m.Rows()
	if len(rows) != 1 || len(rows[0]) != 2 || rows[0][0] != 1.0 || rows[0][1] != 0.5 {
		t.Fatalf("rows = %v, want [[1 0.5]]", rows)
	}
}
