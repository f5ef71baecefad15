// JSON export: Summary freezes a collector into plain, deterministic
// series suitable for ssd.Summarize, the array run documents, Perfetto
// counter tracks, and cmd/report.
package telemetry

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Series is one named per-window value sequence. Values[i] covers
// simulated time [i*window, (i+1)*window).
type Series struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// PhaseSummary aggregates one (kind, phase) histogram over the run.
type PhaseSummary struct {
	Kind    string  `json:"kind"`
	Phase   string  `json:"phase"`
	Count   int64   `json:"count"`
	MeanUs  float64 `json:"mean_us"`
	P50Us   float64 `json:"p50_us"`
	P99Us   float64 `json:"p99_us"`
	MaxUs   float64 `json:"max_us"`
	TotalUs float64 `json:"total_us"`
	// Share is this phase's fraction of the kind's summed latency.
	Share float64 `json:"share"`
}

// Mark is a named instant on the run timeline.
type Mark struct {
	Name string  `json:"name"`
	AtUs float64 `json:"at_us"`
}

// Summary is the machine-readable telemetry document for one run.
type Summary struct {
	WindowUs              float64        `json:"window_us"`
	Windows               int            `json:"windows"`
	Requests              int64          `json:"requests"`
	AttributionViolations int64          `json:"attribution_violations"`
	Series                []Series       `json:"series"`
	Phases                []PhaseSummary `json:"phases,omitempty"`
	Marks                 []Mark         `json:"marks,omitempty"`
}

// SeriesByName returns the named series, or nil.
func (s *Summary) SeriesByName(name string) *Series {
	if s == nil {
		return nil
	}
	for i := range s.Series {
		if s.Series[i].Name == name {
			return &s.Series[i]
		}
	}
	return nil
}

// round6 trims float noise so exported JSON stays compact and stable.
func round6(v float64) float64 {
	if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return math.Round(v*1e6) / 1e6
}

// Summary freezes the collector at end-of-run time end. Open
// intervals (an active GC round, standing tenant queues) are closed at
// max(end, last hook time). Nil-safe: returns nil when disabled.
func (c *Collector) Summary(end sim.Time) *Summary {
	if c == nil {
		return nil
	}
	if end < c.lastEvent {
		end = c.lastEvent
	}
	// Close open intervals against a copy of the mutable state so
	// Summary stays idempotent.
	gcBusy := c.gcBusy
	if c.gcActive {
		gcBusy = gcBusy.Clone()
		gcBusy.AddBusy(c.gcSince, end)
	}
	n := c.slot(end)
	if end > 0 && end%sim.SeriesWindow == 0 {
		n-- // end on a window boundary: last window is [n-1]
	}
	if n < 0 {
		n = 0
	}
	windows := n + 1

	winSec := sim.SeriesWindow.Seconds()
	count := func(v sim.Time) float64 { return float64(v) }
	avg := func(v sim.Time) float64 { return round6(v.Seconds() / winSec) }
	series := func(name, unit string, s *sim.Windowed, conv func(sim.Time) float64) Series {
		return Series{Name: name, Unit: unit, Values: s.Values(windows, conv)}
	}
	mean := make([]float64, windows)
	p50 := make([]float64, windows)
	p99 := make([]float64, windows)
	for w := 0; w < windows && w < len(c.lat); w++ {
		if h := c.lat[w]; h != nil {
			mean[w] = round6(h.Mean().Microseconds())
			p50[w] = round6(h.Median().Microseconds())
			p99[w] = round6(h.P99().Microseconds())
		}
	}
	sum := &Summary{
		WindowUs:              sim.SeriesWindow.Microseconds(),
		Windows:               windows,
		Requests:              c.requests,
		AttributionViolations: c.attViolated,
		Series: []Series{
			series("throughput", "kiops", c.completed, func(v sim.Time) float64 { return round6(float64(v) / winSec / 1000) }),
			series("bandwidth", "mbps", c.bytes, func(v sim.Time) float64 { return round6(float64(v) / winSec / 1e6) }),
			{Name: "lat_mean", Unit: "us", Values: mean},
			{Name: "lat_p50", Unit: "us", Values: p50},
			{Name: "lat_p99", Unit: "us", Values: p99},
		},
	}

	if c.gcSeen {
		sum.Series = append(sum.Series,
			series("gc_active", "frac", gcBusy, avg),
			series("gc_copies", "pages", c.gcCopies, count))
	}
	if c.grantSeen {
		sum.Series = append(sum.Series,
			series("grant_wait", "us", c.grantWait, func(v sim.Time) float64 { return round6(v.Microseconds()) }),
			series("grants", "count", c.grantCount, count))
	}
	for _, t := range c.tenants {
		depth := t.depth
		if t.cur > 0 {
			depth = depth.Clone()
			depth.AddWeighted(t.at, end, int64(t.cur))
		}
		sum.Series = append(sum.Series, series("qdepth:"+t.name, "reqs", depth, avg))
	}
	if c.rebuildSeen {
		sum.Series = append(sum.Series, series("rebuild", "pages", c.rebuilt, count))
	}
	if c.mapSeen {
		sum.Series = append(sum.Series,
			series("map_hits", "count", c.mapHits, count),
			series("map_misses", "count", c.mapMisses, count))
	}
	// Event classes in sorted order so map iteration never leaks.
	for _, class := range sortedKeys(c.events) {
		sum.Series = append(sum.Series, series("event:"+class, "count", c.events[class], count))
	}

	for k := 0; k < 2; k++ {
		kind := stats.IOKind(k).String()
		var kindTotal sim.Time
		for p := Phase(0); p < NumPhases; p++ {
			kindTotal += c.phaseTotal[k][p]
		}
		for p := Phase(0); p < NumPhases; p++ {
			h := c.phaseHist[k][p]
			if h.Count() == 0 {
				continue
			}
			// FinishRequest adds a zero into every phase histogram, so
			// Count alone cannot gate PhaseMap: without the flag the row
			// would appear (all-zero) in flat runs and break flat-mode
			// byte-identity with pre-map-unit output. Its zero total never
			// shifts the other phases' Share values.
			if p == PhaseMap && !c.mapSeen {
				continue
			}
			share := 0.0
			if kindTotal > 0 {
				share = round6(float64(c.phaseTotal[k][p]) / float64(kindTotal))
			}
			sum.Phases = append(sum.Phases, PhaseSummary{
				Kind:    kind,
				Phase:   p.String(),
				Count:   h.Count(),
				MeanUs:  round6(h.Mean().Microseconds()),
				P50Us:   round6(h.Median().Microseconds()),
				P99Us:   round6(h.P99().Microseconds()),
				MaxUs:   round6(h.Max().Microseconds()),
				TotalUs: round6(c.phaseTotal[k][p].Microseconds()),
				Share:   share,
			})
		}
	}
	sum.Marks = append(sum.Marks, c.marks...)
	return sum
}

func sortedKeys(m map[string]*sim.Windowed) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: the class count is tiny and this avoids an
	// import for one call site.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// String summarizes the summary for debug printing.
func (s *Summary) String() string {
	if s == nil {
		return "telemetry: disabled"
	}
	return fmt.Sprintf("telemetry: %d windows x %.0fus, %d series, %d requests, %d violations",
		s.Windows, s.WindowUs, len(s.Series), s.Requests, s.AttributionViolations)
}
