package runner

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// progressState is the -progress reporter: optional, process-wide,
// and fully decoupled from the simulation — it reads wall-clock time
// and a caller-supplied cumulative event counter, never simulated
// state, so enabling it cannot perturb any run.
type progressState struct {
	// enabled is read lock-free on the per-job hot path.
	enabled atomic.Bool

	mu     sync.Mutex
	w      io.Writer
	events func() int64
	lastAt time.Time
	lastEv int64
}

var prog progressState

// EnableProgress turns on coarse progress reporting for every Map call
// in the process: completed-job counts for the current batch, the
// cumulative simulated event count from eventCount (nil omits the
// event columns), the event rate since the previous line, and a
// wall-clock ETA extrapolated from completed jobs. Lines go to w —
// conventionally stderr, never stdout, so experiment CSV output is
// unaffected. Reporting is rate-limited to one line per second plus a
// final line when each batch completes. Passing a nil writer disables
// reporting.
func EnableProgress(w io.Writer, eventCount func() int64) {
	prog.mu.Lock()
	prog.w = w
	prog.events = eventCount
	prog.lastAt = time.Time{}
	prog.lastEv = 0
	prog.mu.Unlock()
	prog.enabled.Store(w != nil)
}

// note reports one completed job (done of n) of a batch that started
// at t0. Intermediate lines are throttled; the batch's final job
// always prints so short batches still leave one line.
func (p *progressState) note(done, n int, t0 time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.w == nil {
		return
	}
	now := time.Now()
	final := done == n
	if !final && now.Sub(p.lastAt) < time.Second {
		return
	}
	line := fmt.Sprintf("progress: %d/%d jobs", done, n)
	if p.events != nil {
		ev := p.events()
		line += fmt.Sprintf(", %s events", countStr(ev))
		since := p.lastAt
		if since.IsZero() {
			since = t0
		}
		if dt := now.Sub(since); dt > 0 && ev >= p.lastEv {
			line += fmt.Sprintf(", %s ev/s", countStr(int64(float64(ev-p.lastEv)/dt.Seconds())))
		}
		p.lastEv = ev
	}
	if final {
		line += fmt.Sprintf(", done in %v", now.Sub(t0).Round(time.Millisecond))
	} else if done > 0 {
		eta := time.Duration(float64(now.Sub(t0)) / float64(done) * float64(n-done))
		line += fmt.Sprintf(", ETA %v", eta.Round(time.Second))
	}
	fmt.Fprintln(p.w, line)
	p.lastAt = now
}

// countStr humanizes a count with k/M/G suffixes.
func countStr(v int64) string {
	switch {
	case v >= 1_000_000_000:
		return fmt.Sprintf("%.1fG", float64(v)/1e9)
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 1_000:
		return fmt.Sprintf("%.1fk", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}
