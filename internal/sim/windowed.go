package sim

// SeriesWindow is the width of every fixed-window series the simulator
// exports: the telemetry series and the Fig 3 per-bus utilization
// matrix (the paper's 500 us heatmap window), which also feeds
// pssdsim's heat table. One width keeps the telemetry counter tracks
// and the heat table on the same time grid.
const SeriesWindow = 500 * Microsecond

// Windowed accumulates a quantity into fixed-width windows of simulated
// time. It is the one windowed series type behind every time-resolved
// view: the Fig 3 per-bus utilization matrix and the telemetry
// collector's GC, grant, queue-depth, and event series. Three kinds of
// credit feed it:
//
//   - AddBusy credits an interval [from, to) to the windows it overlaps
//     (busy time);
//   - AddWeighted credits weight × overlap (a depth integrated over time);
//   - AddPoint adds a count to the window holding one instant.
//
// Window values are raw integers in the unit of what was credited; each
// consumer converts them to its own export format (a fraction of the
// window, microseconds, a count), so no conversion here can disturb any
// consumer's output.
type Windowed struct {
	window Time
	per    []Time
}

// NewWindowed creates an empty series with the given window width.
func NewWindowed(window Time) *Windowed {
	if window <= 0 {
		panic("sim: non-positive window")
	}
	return &Windowed{window: window}
}

// Window returns the window width.
func (w *Windowed) Window() Time { return w.window }

// AddBusy credits the interval [from, to) across the windows it overlaps.
func (w *Windowed) AddBusy(from, to Time) { w.AddWeighted(from, to, 1) }

// AddWeighted credits weight × overlap for each window the interval
// [from, to) overlaps: the time integral of a constant depth.
func (w *Windowed) AddWeighted(from, to Time, weight int64) {
	if to < from {
		panic("sim: inverted window interval")
	}
	if from == to {
		return
	}
	w.grow(int((to - 1) / w.window))
	for from < to {
		i := int(from / w.window)
		end := Time(i+1) * w.window
		if end > to {
			end = to
		}
		w.per[i] += (end - from) * Time(weight)
		from = end
	}
}

// AddPoint adds n to the window holding instant at.
func (w *Windowed) AddPoint(at Time, n int64) {
	i := int(at / w.window)
	w.grow(i)
	w.per[i] += Time(n)
}

// grow extends the series straight to window i in one step, so a credit
// far past the recorded range costs one append, not one per empty window.
func (w *Windowed) grow(i int) {
	if i >= len(w.per) {
		w.per = append(w.per, make([]Time, i+1-len(w.per))...)
	}
}

// Len returns the number of windows recorded: from time zero through the
// last window credited.
func (w *Windowed) Len() int { return len(w.per) }

// Total returns the sum over all windows.
func (w *Windowed) Total() Time {
	var t Time
	for _, v := range w.per {
		t += v
	}
	return t
}

// Values returns windows [0, n) converted by conv. Windows past the
// recorded range read as zero, so series of unequal length pad to a
// common width.
func (w *Windowed) Values(n int, conv func(Time) float64) []float64 {
	out := make([]float64, n)
	for i := 0; i < n && i < len(w.per); i++ {
		out[i] = conv(w.per[i])
	}
	return out
}

// Clone returns an independent copy, so a consumer can close open
// intervals for an export without mutating the live series.
func (w *Windowed) Clone() *Windowed {
	return &Windowed{window: w.window, per: append([]Time(nil), w.per...)}
}
