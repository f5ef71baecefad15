// Package stats provides the measurement primitives used across the
// simulator: latency histograms with percentile queries, throughput
// counters, and the per-channel utilization matrices behind the paper's
// imbalance analysis (Fig 3).
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/sim"
)

// Histogram is a log-bucketed latency histogram. Buckets are spaced at a
// fixed ratio per decade, giving bounded relative error on percentile
// queries while using constant memory regardless of sample count. The
// zero value is not usable; call NewHistogram.
type Histogram struct {
	bucketsPerDecade int
	counts           []int64
	n                int64
	sum              float64
	min              sim.Time
	max              sim.Time
}

// NewHistogram returns a histogram with the given resolution; 90 buckets
// per decade bounds relative error at about 2.6%.
func NewHistogram(bucketsPerDecade int) *Histogram {
	if bucketsPerDecade <= 0 {
		panic("stats: non-positive histogram resolution")
	}
	return &Histogram{
		bucketsPerDecade: bucketsPerDecade,
		min:              math.MaxInt64,
	}
}

// NewLatencyHistogram returns a histogram at the default resolution used
// throughout the experiments.
func NewLatencyHistogram() *Histogram { return NewHistogram(90) }

func (h *Histogram) bucketOf(v sim.Time) int {
	if v <= 0 {
		return 0
	}
	b := int(math.Log10(float64(v))*float64(h.bucketsPerDecade)) + 1
	if b < 1 {
		b = 1
	}
	return b
}

// bucketLow returns a representative value (geometric lower bound) for a
// bucket index.
func (h *Histogram) bucketValue(b int) sim.Time {
	if b == 0 {
		return 0
	}
	return sim.Time(math.Pow(10, float64(b)/float64(h.bucketsPerDecade)))
}

// Add records one sample. Negative samples panic: a latency below zero is a
// model bug.
func (h *Histogram) Add(v sim.Time) {
	if v < 0 {
		panic("stats: negative latency sample")
	}
	b := h.bucketOf(v)
	for b >= len(h.counts) {
		h.counts = append(h.counts, 0)
	}
	h.counts[b]++
	h.n++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Reset empties the histogram, keeping its buckets' capacity.
func (h *Histogram) Reset() {
	*h = Histogram{bucketsPerDecade: h.bucketsPerDecade, counts: h.counts[:0], min: math.MaxInt64}
}

// Clone returns an independent copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = slices.Clone(h.counts)
	return &c
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int64 { return h.n }

// Mean returns the arithmetic mean of samples, or 0 when empty.
func (h *Histogram) Mean() sim.Time {
	if h.n == 0 {
		return 0
	}
	return sim.Time(h.sum / float64(h.n))
}

// Max returns the largest sample, or 0 when empty.
func (h *Histogram) Max() sim.Time {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the approximate p-th percentile (p in [0,100]). The
// exact recorded min and max are returned at the extremes so headline
// numbers like p0/p100 are never distorted by bucketing.
func (h *Histogram) Percentile(p float64) sim.Time {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := int64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			v := h.bucketValue(b)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Median is Percentile(50).
func (h *Histogram) Median() sim.Time { return h.Percentile(50) }

// P99 is Percentile(99).
func (h *Histogram) P99() sim.Time { return h.Percentile(99) }

// Merge adds all samples of other into h. Resolutions must match.
func (h *Histogram) Merge(other *Histogram) {
	if other.bucketsPerDecade != h.bucketsPerDecade {
		panic("stats: merging histograms with different resolutions")
	}
	if d := len(other.counts) - len(h.counts); d > 0 {
		h.counts = append(h.counts, make([]int64, d)...)
	}
	for b, c := range other.counts {
		h.counts[b] += c
	}
	h.n += other.n
	h.sum += other.sum
	if other.n > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// CDF returns (value, cumulative fraction) points suitable for plotting a
// latency CDF (Fig 20a). Empty histograms return nil.
func (h *Histogram) CDF() []CDFPoint {
	if h.n == 0 {
		return nil
	}
	var pts []CDFPoint
	var seen int64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		v := h.bucketValue(b)
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		pts = append(pts, CDFPoint{Value: v, Fraction: float64(seen) / float64(h.n)})
	}
	return pts
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Value    sim.Time
	Fraction float64
}

// String summarizes the distribution for logs.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.n, h.Mean(), h.Median(), h.P99(), h.Max())
}

// ExactPercentile computes a percentile exactly from a raw sample slice.
// It is used by tests to validate Histogram and by small experiments where
// storing samples is cheap. The input is not modified.
func ExactPercentile(samples []sim.Time, p float64) sim.Time {
	if len(samples) == 0 {
		return 0
	}
	s := make([]sim.Time, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
