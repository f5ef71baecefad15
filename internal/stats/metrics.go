package stats

import (
	"fmt"

	"repro/internal/sim"
)

// IOKind distinguishes read and write I/O in per-kind metrics.
type IOKind int

// I/O kinds.
const (
	Read IOKind = iota
	Write
)

// String returns "read" or "write".
func (k IOKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// IOMetrics aggregates per-request latency and volume for one simulation
// run, split by read/write.
type IOMetrics struct {
	Latency      [2]*Histogram
	Bytes        [2]int64
	Requests     [2]int64
	FirstArrival sim.Time
	LastComplete sim.Time
	haveFirst    bool
}

// NewIOMetrics returns empty metrics.
func NewIOMetrics() *IOMetrics {
	return &IOMetrics{
		Latency: [2]*Histogram{NewLatencyHistogram(), NewLatencyHistogram()},
	}
}

// Record logs one completed request.
func (m *IOMetrics) Record(kind IOKind, arrival, complete sim.Time, bytes int64) {
	if complete < arrival {
		panic("stats: completion precedes arrival")
	}
	m.Latency[kind].Add(complete - arrival)
	m.Bytes[kind] += bytes
	m.Requests[kind]++
	if !m.haveFirst || arrival < m.FirstArrival {
		m.FirstArrival = arrival
		m.haveFirst = true
	}
	if complete > m.LastComplete {
		m.LastComplete = complete
	}
}

// Reset empties the metrics in place, keeping their histograms.
func (m *IOMetrics) Reset() {
	for _, h := range m.Latency {
		h.Reset()
	}
	*m = IOMetrics{Latency: m.Latency}
}

// Clone returns an independent copy, for a caller that keeps the metrics
// of a device that will be reset and run again.
func (m *IOMetrics) Clone() *IOMetrics {
	c := *m
	for k, h := range m.Latency {
		c.Latency[k] = h.Clone()
	}
	return &c
}

// TotalRequests returns the request count across kinds.
func (m *IOMetrics) TotalRequests() int64 { return m.Requests[Read] + m.Requests[Write] }

// TotalBytes returns the byte volume across kinds.
func (m *IOMetrics) TotalBytes() int64 { return m.Bytes[Read] + m.Bytes[Write] }

// Combined returns a histogram merging read and write latencies.
func (m *IOMetrics) Combined() *Histogram {
	h := NewLatencyHistogram()
	h.Merge(m.Latency[Read])
	h.Merge(m.Latency[Write])
	return h
}

// MeanLatency returns the mean latency across all requests, the paper's
// primary "average I/O latency" metric, or 0 when there are none. It is
// Combined().Mean() without building the merged histogram.
func (m *IOMetrics) MeanLatency() sim.Time {
	r, w := m.Latency[Read], m.Latency[Write]
	n := r.n + w.n
	if n == 0 {
		return 0
	}
	return sim.Time((r.sum + w.sum) / float64(n))
}

// Span returns the wall-clock interval covered, from first arrival to last
// completion.
func (m *IOMetrics) Span() sim.Time {
	if !m.haveFirst {
		return 0
	}
	return m.LastComplete - m.FirstArrival
}

// KIOPS returns completed requests per wall-clock millisecond, i.e.
// thousands of I/O operations per second — the Fig 15 metric.
func (m *IOMetrics) KIOPS() float64 {
	span := m.Span()
	if span <= 0 {
		return 0
	}
	return float64(m.TotalRequests()) / span.Seconds() / 1000
}

// BandwidthMBps returns achieved bandwidth in MB/s.
func (m *IOMetrics) BandwidthMBps() float64 {
	span := m.Span()
	if span <= 0 {
		return 0
	}
	return float64(m.TotalBytes()) / span.Seconds() / 1e6
}

// String summarizes the run.
func (m *IOMetrics) String() string {
	return fmt.Sprintf("reqs=%d (r=%d w=%d) mean=%v p99=%v kiops=%.1f",
		m.TotalRequests(), m.Requests[Read], m.Requests[Write],
		m.MeanLatency(), m.Combined().P99(), m.KIOPS())
}

// UtilMatrix is a channels × time-window utilization matrix: the data
// behind the paper's Fig 3 heatmap. Rows are channels, columns are windows.
// Each row is fed by attaching Observer(ch) to that channel's resource.
type UtilMatrix struct {
	Recorders []*sim.Windowed
}

// NewUtilMatrix creates one busy-time series per channel with a shared
// window.
func NewUtilMatrix(channels int, window sim.Time) *UtilMatrix {
	m := &UtilMatrix{Recorders: make([]*sim.Windowed, channels)}
	for i := range m.Recorders {
		m.Recorders[i] = sim.NewWindowed(window)
	}
	return m
}

// Observer returns the resource observer that credits every completed
// hold, over [grantedAt, releasedAt), to channel ch's row.
func (m *UtilMatrix) Observer(ch int) sim.ResourceObserver { return utilRow{m.Recorders[ch]} }

// utilRow is one channel's row as a passive resource observer.
type utilRow struct{ w *sim.Windowed }

func (u utilRow) ResourceHold(_ *sim.Resource, _ string, _, grantedAt, releasedAt sim.Time) {
	u.w.AddBusy(grantedAt, releasedAt)
}

func (utilRow) ResourceQueue(*sim.Resource, int, sim.Time) {}

// Rows returns the matrix as [channel][window] utilization in [0,1], with
// all rows padded to the same width.
func (m *UtilMatrix) Rows() [][]float64 {
	width := 0
	for _, r := range m.Recorders {
		if r.Len() > width {
			width = r.Len()
		}
	}
	rows := make([][]float64, len(m.Recorders))
	for i, r := range m.Recorders {
		rows[i] = r.Values(width, func(b sim.Time) float64 { return float64(b) / float64(r.Window()) })
	}
	return rows
}

// ImbalanceOfRows computes a busy-weighted imbalance index over a
// [channel][window] utilization matrix: the sum over windows of the
// busiest channel's utilization divided by the sum of the mean
// utilization. Busy-weighting keeps sparse near-idle windows (one brief
// transfer somewhere) from dominating the index the way a per-window
// average of max/mean would.
func ImbalanceOfRows(rows [][]float64) float64 {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return 1
	}
	var maxSum, meanSum float64
	for w := 0; w < len(rows[0]); w++ {
		var sum, max float64
		for c := range rows {
			v := rows[c][w]
			sum += v
			if v > max {
				max = v
			}
		}
		maxSum += max
		meanSum += sum / float64(len(rows))
	}
	if meanSum == 0 {
		return 1
	}
	return maxSum / meanSum
}
