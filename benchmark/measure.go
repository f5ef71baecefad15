package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/sim"
)

// result is one run's outcome: the last line a run prints, as JSON.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Digest and Spans travel only from a suite child to its parent.
	Digest string `json:"digest,omitempty"`
	Spans  []span `json:"spans,omitempty"`
}

// record adds one checked outcome to the result.
func (r *result) record(o outcome) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	if o.err != nil {
		r.Correct = false
	}
}

// setupReps is how many set-ups a timed run times before each unit, and a
// traced run times in all; each set-up metric is the median over them.
// Spreading a timed run's set-ups over its units keeps a burst of host
// noise, which can slow a few consecutive set-ups threefold, to a few
// samples.
var setupReps = 5

// A single run's units cycle through inputsPerRun inputs: unit i runs
// seed + (i mod inputsPerRun)·seedStride, so unit 0 runs the seed itself.
// The median over several inputs evens out what one input's write-stall
// storms cost: spgc-omnibus host time varies by about ±10% from seed to
// seed.
const (
	inputsPerRun = 3
	seedStride   = 1 << 20
)

// measure is a timed run. It runs units on fresh set-ups in whole rounds
// over inputs inputs, one unit each, until minRounds rounds have run and
// seconds have passed, and times setupReps set-ups of each unit's input
// before it. It reports each end-to-end metric as the median over units or
// set-ups. Every input appears equally
// often, so the median of a per-input count (events_m, allocs_m) is the
// middle input's, however many rounds the machine's speed allows. Every
// unit is checked, and units of the same input must produce the same
// digest; the result carries unit 0's. A garbage collection before each
// unit starts it from the same heap, so it does not pay for the previous
// one's garbage.
func measure(w workload, seed int64, n, inputs, minRounds int, seconds float64) result {
	res := result{Correct: true}
	var setups, runs, events, allocs, reqRate []float64
	digests := map[int64]string{}
	start := time.Now()
	for len(runs)%inputs != 0 || len(runs) < minRounds*inputs || time.Since(start).Seconds() < seconds {
		input := seed + int64(len(runs)%inputs)*seedStride
		for i := 0; i < setupReps; i++ {
			setups = append(setups, timeSetup(w, input, n, nil).total().Seconds())
		}
		runtime.GC()
		in := w.setup(input, n, nil, nil)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		total0 := sim.EventsFiredTotal()
		t := time.Now()
		in.run(nil)
		secs := time.Since(t).Seconds()
		ev := in.eventsSince(total0)
		runtime.ReadMemStats(&m1)

		o := in.check(nil)
		if want, ok := digests[input]; !ok {
			digests[input] = o.digest
		} else if o.digest != want && o.err == nil {
			o.err = fmt.Errorf("digest %s differs from %s, an earlier unit's of the same input", o.digest, want)
			o.failed = o.attempted
		}
		res.record(o)
		if o.err != nil {
			fmt.Fprintf(stderr, "%s: unit %d: %v\n", w.name, len(runs), o.err)
		}
		runs = append(runs, secs)
		events = append(events, float64(ev)/1e6)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/1e6)
		reqRate = append(reqRate, float64(in.simRequests())/secs)
	}
	res.Digest = digests[seed]
	values := map[string]float64{
		"run_s":       median(runs),
		"setup_s":     median(setups),
		"events_m":    median(events),
		"allocs_m":    median(allocs),
		"peak_rss_mb": peakRSSMB(),
		"fail_frac":   float64(res.Failed) / float64(res.Attempted),
	}
	if w.device != nil {
		values["req_per_s"] = median(reqRate)
	}
	res.Metrics = metrics(values)
	return res
}

// timeSetup times one set-up from a collected heap with the collector
// paused, so setup_s is the construction work alone: with collection on,
// where its cycles land made the median of 15 set-ups differ by a quarter
// from one run to the next.
func timeSetup(w workload, seed int64, n int, sp *spans) setupTimes {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return w.setup(seed, n, nil, sp).times
}

// rusage reads this process's resource usage; RUSAGE_SELF cannot fail.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // kB on Linux

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
