package stats

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	h.Add(10 * sim.Microsecond)
	h.Add(20 * sim.Microsecond)
	h.Add(30 * sim.Microsecond)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 20*sim.Microsecond {
		t.Fatalf("Mean = %v, want 20us", h.Mean())
	}
	if h.Percentile(0) != 10*sim.Microsecond || h.Max() != 30*sim.Microsecond {
		t.Fatalf("p0/Max = %v/%v", h.Percentile(0), h.Max())
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewLatencyHistogram()
	rng := rand.New(rand.NewSource(7))
	var samples []sim.Time
	for i := 0; i < 20000; i++ {
		// log-uniform from 1us to 10ms
		v := sim.Time(float64(sim.Microsecond) * pow10(rng.Float64()*4))
		samples = append(samples, v)
		h.Add(v)
	}
	for _, p := range []float64{10, 50, 90, 99, 99.9} {
		exact := ExactPercentile(samples, p)
		got := h.Percentile(p)
		ratio := float64(got) / float64(exact)
		if ratio < 0.94 || ratio > 1.06 {
			t.Errorf("p%.1f: histogram=%v exact=%v ratio=%.3f", p, got, exact, ratio)
		}
	}
}

func pow10(x float64) float64 {
	r := 1.0
	for x >= 1 {
		r *= 10
		x--
	}
	// linear-ish interpolation is fine for test data generation
	return r * (1 + 9*x/1.0)
}

func TestHistogramExtremes(t *testing.T) {
	h := NewLatencyHistogram()
	h.Add(0)
	h.Add(5 * sim.Millisecond)
	if h.Percentile(0) != 0 {
		t.Fatalf("p0 = %v, want 0", h.Percentile(0))
	}
	if h.Percentile(100) != 5*sim.Millisecond {
		t.Fatalf("p100 = %v, want 5ms", h.Percentile(100))
	}
}

func TestHistogramNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative sample did not panic")
		}
	}()
	NewLatencyHistogram().Add(-1)
}

func TestHistogramMerge(t *testing.T) {
	a := NewLatencyHistogram()
	b := NewLatencyHistogram()
	a.Add(sim.Microsecond)
	b.Add(3 * sim.Microsecond)
	b.Add(5 * sim.Microsecond)
	a.Merge(b)
	if a.Count() != 3 {
		t.Fatalf("Count = %d, want 3", a.Count())
	}
	if a.Mean() != 3*sim.Microsecond {
		t.Fatalf("Mean = %v, want 3us", a.Mean())
	}
	if a.Percentile(0) != sim.Microsecond || a.Max() != 5*sim.Microsecond {
		t.Fatalf("p0/Max = %v/%v", a.Percentile(0), a.Max())
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 1; i <= 100; i++ {
		h.Add(sim.Time(i) * sim.Microsecond)
	}
	pts := h.CDF()
	if len(pts) == 0 {
		t.Fatal("empty CDF")
	}
	last := pts[len(pts)-1]
	if last.Fraction != 1.0 {
		t.Fatalf("CDF does not reach 1: %v", last.Fraction)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value || pts[i].Fraction < pts[i-1].Fraction {
			t.Fatal("CDF not monotone")
		}
	}
}

// Property: percentile is monotone in p and bounded by [min, max].
func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	prop := func(raw []uint32) bool {
		h := NewLatencyHistogram()
		for _, v := range raw {
			h.Add(sim.Time(v))
		}
		prev := sim.Time(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			if h.Count() > 0 && (v < h.Percentile(0) || v > h.Max()) {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramPercentileEmpty pins the empty-histogram contract: every
// percentile query, including out-of-range p, returns 0 rather than the
// MaxInt64 sentinel the min field starts at.
func TestHistogramPercentileEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	for _, p := range []float64{-5, 0, 50, 100, 200} {
		if got := h.Percentile(p); got != 0 {
			t.Fatalf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}
}

// TestHistogramPercentileSingleSample: with one sample, every percentile
// is that sample exactly — bucketing must not distort it.
func TestHistogramPercentileSingleSample(t *testing.T) {
	v := 137 * sim.Microsecond
	h := NewLatencyHistogram()
	h.Add(v)
	for _, p := range []float64{-1, 0, 0.001, 50, 99.999, 100, 150} {
		if got := h.Percentile(p); got != v {
			t.Fatalf("single-sample Percentile(%v) = %v, want %v", p, got, v)
		}
	}
}

// TestHistogramPercentileBoundsExact: p<=0 must return the exact recorded
// minimum and p>=100 the exact maximum (not bucket bounds), including for
// out-of-range p.
func TestHistogramPercentileBoundsExact(t *testing.T) {
	h := NewLatencyHistogram()
	lo, hi := 999*sim.Nanosecond, 7777*sim.Microsecond
	h.Add(lo)
	h.Add(42 * sim.Microsecond)
	h.Add(hi)
	for _, p := range []float64{-10, 0} {
		if got := h.Percentile(p); got != lo {
			t.Fatalf("Percentile(%v) = %v, want exact min %v", p, got, lo)
		}
	}
	for _, p := range []float64{100, 250} {
		if got := h.Percentile(p); got != hi {
			t.Fatalf("Percentile(%v) = %v, want exact max %v", p, got, hi)
		}
	}
}

// TestHistogramAgreesWithExactOnRandomSample drives the same uniform
// random sample through the histogram and ExactPercentile and demands
// agreement within the histogram's documented relative error (~2.6% at 90
// buckets/decade; allow 6% for rank-rounding) across the full percentile
// range, exact at the endpoints.
func TestHistogramAgreesWithExactOnRandomSample(t *testing.T) {
	h := NewLatencyHistogram()
	rng := rand.New(rand.NewSource(99))
	samples := make([]sim.Time, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := sim.Time(rng.Int63n(int64(10*sim.Millisecond))) + 1
		samples = append(samples, v)
		h.Add(v)
	}
	if got, want := h.Percentile(0), ExactPercentile(samples, 0); got != want {
		t.Fatalf("p0: histogram %v, exact %v", got, want)
	}
	if got, want := h.Percentile(100), ExactPercentile(samples, 100); got != want {
		t.Fatalf("p100: histogram %v, exact %v", got, want)
	}
	for _, p := range []float64{0.1, 1, 5, 25, 50, 75, 90, 99, 99.9} {
		exact := ExactPercentile(samples, p)
		got := h.Percentile(p)
		ratio := float64(got) / float64(exact)
		if ratio < 0.94 || ratio > 1.06 {
			t.Errorf("p%v: histogram=%v exact=%v ratio=%.3f", p, got, exact, ratio)
		}
	}
}

func TestExactPercentile(t *testing.T) {
	s := []sim.Time{50, 10, 40, 30, 20}
	if got := ExactPercentile(s, 50); got != 30 {
		t.Fatalf("p50 = %v, want 30", got)
	}
	if got := ExactPercentile(s, 0); got != 10 {
		t.Fatalf("p0 = %v, want 10", got)
	}
	if got := ExactPercentile(s, 100); got != 50 {
		t.Fatalf("p100 = %v, want 50", got)
	}
	if got := ExactPercentile(nil, 50); got != 0 {
		t.Fatalf("empty = %v, want 0", got)
	}
	// input must not be mutated
	if s[0] != 50 {
		t.Fatal("ExactPercentile mutated input")
	}
}
