package controller

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// refSoc is the SoC as two ordinary resources in tandem, the model the
// Soc's virtual clocks stand for: a transfer holds the system bus, then
// DRAM, each hold an event, and a write's ECC tail is an event of its
// own after the DRAM release.
type refSoc struct {
	eng           *sim.Engine
	sysBus, dram  *sim.Resource
	sysPs, dramPs sim.Time
}

func newRefSoc(eng *sim.Engine, sysBusMBps, dramMBps int) *refSoc {
	return &refSoc{
		eng:    eng,
		sysBus: sim.NewResource(eng, "sysbus"),
		dram:   sim.NewResource(eng, "dram"),
		sysPs:  sim.Time(1_000_000 / sysBusMBps),
		dramPs: sim.Time(1_000_000 / dramMBps),
	}
}

func (r *refSoc) transfer(n int, tail sim.Time, done func()) {
	r.sysBus.UseLabeled("xfer", sim.Time(n)*r.sysPs, func() {
		r.dram.UseLabeled("xfer", sim.Time(n)*r.dramPs, func() {
			if tail > 0 {
				r.eng.Schedule(tail, done)
				return
			}
			done()
		})
	})
}

func (r *refSoc) eccTransfer(n int, done func()) {
	r.eng.Schedule(EccLatency, func() { r.transfer(n, 0, done) })
}

// socPath is the surface a SoC script drives: Soc and refSoc.
type socPath interface {
	transfer(n int, tail sim.Time, done func())
	eccTransfer(n int, done func())
}

// socLog records observer callbacks as text, in order.
type socLog struct{ strings.Builder }

func (l *socLog) ResourceHold(r *sim.Resource, label string, queued, granted, released sim.Time) {
	fmt.Fprintf(l, "%s %s %d/%d/%d\n", r.Name(), label, queued, granted, released)
}

func (l *socLog) ResourceQueue(r *sim.Resource, depth int, at sim.Time) {
	fmt.Fprintf(l, "%s depth %d@%d\n", r.Name(), depth, at)
}

// socCallCost is the events a call costs the Soc, by kind: a plain
// transfer, a write with its ECC tail, a read through eccTransfer, and
// a hold of the host link beside the SoC.
var socCallCost = [4]int64{1, 1, 2, 1}

// socScript is a seeded script of calls on a SoC and on a host link, an
// ordinary resource at 8000 MB/s, as fast as a SoC stage, like the NVMe
// link a device builds: up to 24 request events at instants on a 256 ns grid, each
// making one to three calls of 0 to 4 pages. A page takes 512 ns at 8000
// MB/s, so requests share instants with each other and with releases.
// With follow set, completions make calls too, as a device's do: a
// completion without an ECC tail makes a call or holds the link for its
// pages (a read's return to the host) a quarter of the time each, and a
// link hold makes a call a quarter of the time (a host write's payload
// going out); a write's tail only hands the payload to the fabric. Each
// call has an id, and its kind, size and follow-up come from the id.
type socScript struct {
	eng    *sim.Engine
	path   socPath
	link   *sim.Resource
	follow bool
	done   map[uint64]sim.Time // completion instant of each SoC call, by id
	order  strings.Builder     // SoC completions in the order they ran
	made   []socCall           // SoC calls in the order they were made
	calls  [4]int64            // calls by kind
	events int64               // the script's own request events
}

// socCall is one SoC call as it was made.
type socCall struct {
	at      sim.Time
	id      uint64
	kind, n int
}

const socPage = 4096

// mix is splitmix64's finalizer: a call id to the bits that pick its
// kind, size and follow-up.
func mix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func runSocScript(seed int64, follow bool, eng *sim.Engine, path socPath) *socScript {
	s := &socScript{eng: eng, path: path, link: sim.NewResource(eng, "link"),
		follow: follow, done: map[uint64]sim.Time{}}
	rng := rand.New(rand.NewSource(seed))
	s.events = int64(1 + rng.Intn(24))
	for ev := range uint64(s.events) {
		at := sim.Time(rng.Intn(256)) * 256 * sim.Nanosecond
		ids := make([]uint64, 1+rng.Intn(3))
		for k := range ids {
			ids[k] = mix(uint64(seed)<<32 | ev<<4 | uint64(k))
		}
		eng.At(at, func() {
			for _, id := range ids {
				s.call(id)
			}
		})
	}
	eng.Run()
	return s
}

// call makes call id: a plain transfer, a write with its ECC tail, a
// read through the ECC or a link hold, of 0 to 4 pages (1 to 4 with
// follow set; a device moves no empty pages).
func (s *socScript) call(id uint64) {
	h := mix(id)
	pages := int(h / 4 % 5)
	if s.follow {
		pages = 1 + int(h/4%4)
	}
	s.do(id, int(h%4), pages*socPage)
}

// do makes call id of kind on n bytes.
func (s *socScript) do(id uint64, kind, n int) {
	s.calls[kind]++
	if kind != 3 {
		s.made = append(s.made, socCall{at: s.eng.Now(), id: id, kind: kind, n: n})
	}
	fin := func() {
		if kind != 3 {
			s.done[id] = s.eng.Now()
			fmt.Fprintf(&s.order, "%x@%d ", id, s.eng.Now())
		}
		if !s.follow || kind == 1 {
			return
		}
		switch r := mix(id) / 64 % 4; {
		case kind == 3 && r == 0, kind != 3 && r == 1:
			s.call(mix(id ^ 1))
		case kind != 3 && r == 0:
			s.do(mix(id^2), 3, n)
		}
	}
	switch kind {
	case 0:
		s.path.transfer(n, 0, fin)
	case 1:
		s.path.transfer(n, EccLatency, fin)
	case 2:
		s.path.eccTransfer(n, fin)
	case 3:
		s.link.UseLabeled("link", sim.Time(n)*125, fin)
	}
}

// replaySoc makes calls on path at their instants, in their order, from
// events scheduled up front, and returns each one's completion instant.
func replaySoc(calls []socCall, eng *sim.Engine, path socPath) map[uint64]sim.Time {
	done := map[uint64]sim.Time{}
	for i := 0; i < len(calls); {
		j := i + 1
		for j < len(calls) && calls[j].at == calls[i].at {
			j++
		}
		batch := calls[i:j]
		eng.At(batch[0].at, func() {
			for _, c := range batch {
				fin := func() { done[c.id] = eng.Now() }
				switch c.kind {
				case 0:
					path.transfer(c.n, 0, fin)
				case 1:
					path.transfer(c.n, EccLatency, fin)
				case 2:
					path.eccTransfer(c.n, fin)
				}
			}
		})
		i = j
	}
	eng.Run()
	return done
}

// holdLines returns an observer log's hold lines, sorted.
func holdLines(log string) []string {
	var out []string
	for _, l := range strings.Split(log, "\n") {
		if strings.Contains(l, " xfer ") {
			out = append(out, l)
		}
	}
	slices.Sort(out)
	return out
}

// TestSocMatchesResourceTandem drives random scripts through the Soc
// and the two-resource tandem it replaces. With calls made only by
// events of their own, every completion lands at the same instant and in
// the same order, the busy totals agree, and an observer sees the same
// holds and queue depths in the same order. With calls made by
// completions too (follow), a completion's same-instant tie with another
// event can fall the other way, so the calls are compared as the Soc saw
// them: the same calls made on the tandem at the same instants in the
// same order complete at the same instants, and an observer sees the
// same holds. Each call costs the Soc one event, a read two (its ECC
// delay, then the transfer), with or without an observer.
func TestSocMatchesResourceTandem(t *testing.T) {
	for _, rates := range [][2]int{{8000, 8000}, {8000, 4000}, {4000, 8000}} {
		for seed := int64(1); seed <= 600; seed++ {
			follow := seed%2 == 0
			for _, observed := range []bool{false, true} {
				eng := sim.NewEngine()
				soc := NewSoc(eng, rates[0], rates[1])
				var got socLog
				if observed {
					soc.AddObserver(&got)
				}
				run := runSocScript(seed, follow, eng, soc)
				name := fmt.Sprintf("rates %v seed %d follow %v observed %v", rates, seed, follow, observed)

				refEng := sim.NewEngine()
				ref := newRefSoc(refEng, rates[0], rates[1])
				var want socLog
				ref.sysBus.AddObserver(&want)
				ref.dram.AddObserver(&want)
				var wantDone map[uint64]sim.Time
				if follow {
					wantDone = replaySoc(run.made, refEng, ref)
				} else {
					wantRun := runSocScript(seed, follow, refEng, ref)
					if got, want := run.order.String(), wantRun.order.String(); got != want {
						t.Fatalf("%s: completions ran in order\n%s\nwant\n%s", name, got, want)
					}
					wantDone = wantRun.done
				}
				if !maps.Equal(run.done, wantDone) {
					t.Fatalf("%s: completions\n%v\nwant\n%v", name, run.done, wantDone)
				}
				if soc.SysBusBusy() != ref.sysBus.TotalBusy() || soc.DramBusy() != ref.dram.TotalBusy() {
					t.Fatalf("%s: busy sysbus %v dram %v, want %v and %v", name,
						soc.SysBusBusy(), soc.DramBusy(), ref.sysBus.TotalBusy(), ref.dram.TotalBusy())
				}
				switch {
				case !observed:
				case !follow && got.String() != want.String():
					t.Fatalf("%s: observer saw\n%s\nwant\n%s", name, got.String(), want.String())
				case !slices.Equal(holdLines(got.String()), holdLines(want.String())):
					t.Fatalf("%s: observer saw holds\n%s\nwant\n%s", name, holdLines(got.String()), holdLines(want.String()))
				}
				cost := run.events
				for k, n := range run.calls {
					cost += n * socCallCost[k]
				}
				if eng.EventsFired() != cost {
					t.Fatalf("%s: calls %v and %d script events fired %d events, want %d", name, run.calls, run.events, eng.EventsFired(), cost)
				}
				if !soc.Idle() {
					t.Fatalf("%s: SoC busy after drain", name)
				}
			}
		}
	}
}

// TestSocCompletionTies pins where a completion falls among events due
// at its instant in the ties a device makes: a host link hold as long as
// a SoC stage ends with a completion. At 8000 MB/s a 4 KB page holds
// each stage 512 ns. Where the Soc's rule (a completion is ordered as of
// its DRAM grant, after what is scheduled then) orders the tie as the
// tandem does, the case is compared with the tandem; otherwise want
// states the Soc's order.
func TestSocCompletionTies(t *testing.T) {
	const page = 4096
	for _, tc := range []struct {
		name   string
		script func(eng *sim.Engine, path socPath, link *sim.Resource, log func(string) func())
		want   string // the Soc's order where it differs from the tandem's
	}{
		// b waits in DRAM behind a, and a's done holds the link. b's
		// DRAM grant is a's release at 1024 ns, where a's done
		// schedules the link's release, so the link's release is
		// ordered first. The tandem hands DRAM to b before a's done
		// runs, so it releases b first.
		{"queued in DRAM, after the link", func(eng *sim.Engine, path socPath, link *sim.Resource, log func(string) func()) {
			path.transfer(page, 0, func() {
				log("a")()
				link.Use(512*sim.Nanosecond, log("link"))
			})
			path.transfer(page, 0, log("b"))
		}, "a@1024000 link@1536000 b@1536000 "},
		// a finds DRAM idle: the tandem schedules its release at the
		// bus release, after the link hold requested before it.
		{"granted at the bus release", func(eng *sim.Engine, path socPath, link *sim.Resource, log func(string) func()) {
			path.transfer(page, 0, log("a"))
			eng.At(256*sim.Nanosecond, func() { link.Use(768*sim.Nanosecond, log("link")) })
		}, ""},
		// The ECC tail follows the DRAM release at 1024 ns, after the
		// link hold requested at 1000 ns.
		{"ECC tail", func(eng *sim.Engine, path socPath, link *sim.Resource, log func(string) func()) {
			path.transfer(page, EccLatency, log("w"))
			eng.At(1000*sim.Nanosecond, func() { link.Use(524*sim.Nanosecond, log("link")) })
		}, ""},
	} {
		run := func(eng *sim.Engine, path socPath) string {
			var sb strings.Builder
			log := func(what string) func() {
				return func() { fmt.Fprintf(&sb, "%s@%d ", what, eng.Now()) }
			}
			eng.At(0, func() { tc.script(eng, path, sim.NewResource(eng, "link"), log) })
			eng.Run()
			return sb.String()
		}
		want := tc.want
		if want == "" {
			refEng := sim.NewEngine()
			want = run(refEng, newRefSoc(refEng, 8000, 8000))
		}
		eng := sim.NewEngine()
		if got := run(eng, NewSoc(eng, 8000, 8000)); got != want {
			t.Errorf("%s: ran %s, want %s", tc.name, got, want)
		}
	}
}

// TestSocEventsPerCall pins the cost of each SoC call on an idle SoC: a
// transfer is one event, a write with its ECC tail one, a read through
// the ECC two, and a queued transfer no more.
func TestSocEventsPerCall(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(s *Soc, done func())
		want int64
	}{
		{"transfer", func(s *Soc, done func()) { s.transfer(16384, 0, done) }, 1},
		{"write with ECC tail", func(s *Soc, done func()) { s.transfer(16384, EccLatency, done) }, 1},
		{"read through ECC", func(s *Soc, done func()) { s.eccTransfer(16384, done) }, 2},
	} {
		e, _, soc := testRig(1, 1)
		n := 0
		for range 3 { // the second and third queue behind the first
			tc.call(soc, func() { n++ })
		}
		e.Run()
		if n != 3 || e.EventsFired() != 3*tc.want {
			t.Errorf("%s: 3 calls fired %d events and %d completions, want %d and 3", tc.name, e.EventsFired(), n, 3*tc.want)
		}
	}
}

// TestSocObserverOnBusySocPanics: the observed replay starts with the
// first transfer, so an observer cannot join mid-transfer.
func TestSocObserverOnBusySocPanics(t *testing.T) {
	_, _, soc := testRig(1, 1)
	soc.transfer(16384, 0, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("AddObserver on a busy SoC did not panic")
		}
	}()
	soc.AddObserver(&socLog{})
}
