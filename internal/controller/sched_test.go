package controller

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/flash"
)

func TestParseSchedPolicy(t *testing.T) {
	cases := []struct {
		in      string
		want    SchedPolicy
		wantErr bool
	}{
		{"", SchedFIFO, false},
		{"fifo", SchedFIFO, false},
		{"FIFO", SchedFIFO, false},
		{"conflict", SchedConflict, false},
		{"ooo", SchedOOO, false},
		{"venice", 0, true},
		{"oooo", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSchedPolicy(c.in)
		if (err != nil) != c.wantErr {
			t.Fatalf("ParseSchedPolicy(%q): err = %v, wantErr = %v", c.in, err, c.wantErr)
		}
		if err == nil && got != c.want {
			t.Fatalf("ParseSchedPolicy(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for i, name := range SchedPolicyNames() {
		if SchedPolicy(i).String() != name {
			t.Fatalf("policy %d stringifies as %q, names list says %q", i, SchedPolicy(i), name)
		}
		if p, err := ParseSchedPolicy(name); err != nil || p != SchedPolicy(i) {
			t.Fatalf("round-trip %q = %v, %v", name, p, err)
		}
	}
	if SchedPolicy(99).String() == "" || SegKind(99).String() == "" {
		t.Fatal("out-of-range enums must still stringify")
	}
}

func TestSchedPathClosure(t *testing.T) {
	e, g, soc := testRig(4, 4)
	omni := NewOmnibusFabric(e, "pnssd", g, soc, testGeo().PageSize, 8, 8, 1000, true, false)
	so := NewSchedFabric(omni, SchedConflict)
	if got := so.readPath(nil, ChipID{2, 3}); !reflect.DeepEqual(got, []PathSeg{{SegH, 2}, {SegV, 3}, {SegChip, 2*4 + 3}}) {
		t.Fatalf("omnibus read path = %v", got)
	}
	// Same v-column copy reserves the v-channel, not the h-channels.
	if got := so.copyPath(nil, ChipID{0, 1}, ChipID{3, 1}); !reflect.DeepEqual(got, []PathSeg{{SegV, 1}, {SegChip, 1}, {SegChip, 3*4 + 1}}) {
		t.Fatalf("same-column copy path = %v", got)
	}
	// Cross-column copy relays over both rows' h-channels.
	if got := so.copyPath(nil, ChipID{0, 0}, ChipID{1, 2}); !reflect.DeepEqual(got, []PathSeg{{SegH, 0}, {SegH, 1}, {SegChip, 0}, {SegChip, 1*4 + 2}}) {
		t.Fatalf("cross-column copy path = %v", got)
	}
	// Same-row cross-column copy names one h-channel once (dedupe).
	if got := so.copyPath(nil, ChipID{2, 0}, ChipID{2, 3}); !reflect.DeepEqual(got, []PathSeg{{SegH, 2}, {SegChip, 2 * 4}, {SegChip, 2*4 + 3}}) {
		t.Fatalf("same-row copy path = %v", got)
	}

	e2, g2, soc2 := testRig(4, 4)
	bus := NewOmnibusFabric(e2, "pssd", g2, soc2, testGeo().PageSize, 16, 0, 1000, true, false)
	sb := NewSchedFabric(bus, SchedConflict)
	if got := sb.readPath(nil, ChipID{1, 2}); !reflect.DeepEqual(got, []PathSeg{{SegH, 1}, {SegChip, 1*4 + 2}}) {
		t.Fatalf("bus read path = %v", got)
	}
	if got := sb.copyPath(nil, ChipID{1, 0}, ChipID{3, 0}); !reflect.DeepEqual(got, []PathSeg{{SegH, 1}, {SegH, 3}, {SegChip, 1 * 4}, {SegChip, 3 * 4}}) {
		t.Fatalf("bus copy path = %v", got)
	}
	if PathSeg.String(PathSeg{SegV, 2}) != "v2" {
		t.Fatalf("PathSeg stringification broke: %v", PathSeg{SegV, 2})
	}
}

// schedHarness drives a SchedFabric white-box: ops are injected with
// explicit paths, issues are recorded in order, and the test completes
// them by hand.
type schedHarness struct {
	f     *SchedFabric
	tags  []string // tags[i] names the op whose one page is page i
	order []string
	fins  map[string]func()
}

// harnessFabric is a harness scheduler's inner fabric: a read records
// the issue of the op its page names and keeps its completion for the
// test to run.
type harnessFabric struct {
	Fabric
	h *schedHarness
}

func (f harnessFabric) Read(_ ChipID, ppas []flash.PPA, done func()) {
	tag := f.h.tags[ppas[0].Page]
	f.h.order = append(f.h.order, tag)
	f.h.fins[tag] = done
}

// tune overrides a scheduler's reorder window and starvation bound; zero
// keeps the default.
func tune(f *SchedFabric, window, bound int) *SchedFabric {
	if window > 0 {
		f.window = window
	}
	if bound > 0 {
		f.bound = bound
	}
	return f
}

func newSchedHarness(pol SchedPolicy, window, bound int) *schedHarness {
	e, g, soc := testRig(2, 2)
	inner := newOmnibus(e, g, soc, false)
	h := &schedHarness{fins: make(map[string]func())}
	h.f = tune(NewSchedFabric(harnessFabric{inner, h}, pol), window, bound)
	return h
}

// add injects one read named tag with the given reservation path and
// target chips; the inner issue is stubbed so completion is manual.
func (h *schedHarness) add(tag string, segs []PathSeg, chips ...int) {
	op := h.f.newOp(opRead, ChipID{}, nil)
	op.segs = append(op.segs, segs...)
	op.nchips = copy(op.chip[:], chips)
	op.ppas = []flash.PPA{{Page: len(h.tags)}}
	h.tags = append(h.tags, tag)
	h.f.submit(op)
}

func (h *schedHarness) complete(tag string) {
	fin := h.fins[tag]
	if fin == nil {
		panic(fmt.Sprintf("op %s never issued", tag))
	}
	delete(h.fins, tag)
	fin()
}

func segs(ss ...PathSeg) []PathSeg { return ss }

func TestConflictAdmitDeferRelease(t *testing.T) {
	type step struct {
		submit   string    // op tag to submit, "" for none
		path     []PathSeg // its reservation path
		chips    []int
		complete string // op tag to complete, "" for none
	}
	cases := []struct {
		name         string
		steps        []step
		wantOrder    []string
		wantDeferred int64
	}{
		{
			name: "disjoint paths issue immediately",
			steps: []step{
				{submit: "A", path: segs(PathSeg{SegH, 0}), chips: []int{0}},
				{submit: "B", path: segs(PathSeg{SegH, 1}), chips: []int{2}},
			},
			wantOrder:    []string{"A", "B"},
			wantDeferred: 0,
		},
		{
			name: "shared segment serializes in arrival order",
			steps: []step{
				{submit: "A", path: segs(PathSeg{SegH, 0}), chips: []int{0}},
				{submit: "B", path: segs(PathSeg{SegH, 0}), chips: []int{1}},
				{submit: "C", path: segs(PathSeg{SegH, 0}), chips: []int{0}},
				{complete: "A"},
				{complete: "B"},
			},
			wantOrder:    []string{"A", "B", "C"},
			wantDeferred: 2,
		},
		{
			name: "partial overlap defers, disjoint passes",
			steps: []step{
				{submit: "A", path: segs(PathSeg{SegH, 0}, PathSeg{SegV, 0}), chips: []int{0}},
				{submit: "B", path: segs(PathSeg{SegV, 0}, PathSeg{SegChip, 1}), chips: []int{1}},
				{submit: "C", path: segs(PathSeg{SegH, 1}, PathSeg{SegChip, 2}), chips: []int{2}},
				{complete: "A"},
			},
			wantOrder:    []string{"A", "C", "B"},
			wantDeferred: 1,
		},
		{
			name: "chip segment conflicts like a bus segment",
			steps: []step{
				{submit: "A", path: segs(PathSeg{SegChip, 3}), chips: []int{3}},
				{submit: "B", path: segs(PathSeg{SegChip, 3}), chips: []int{3}},
				{complete: "A"},
			},
			wantOrder:    []string{"A", "B"},
			wantDeferred: 1,
		},
		{
			name: "release admits every newly unblocked op",
			steps: []step{
				{submit: "A", path: segs(PathSeg{SegH, 0}, PathSeg{SegH, 1}), chips: []int{0}},
				{submit: "B", path: segs(PathSeg{SegH, 0}), chips: []int{1}},
				{submit: "C", path: segs(PathSeg{SegH, 1}), chips: []int{2}},
				{complete: "A"},
			},
			wantOrder:    []string{"A", "B", "C"},
			wantDeferred: 2,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newSchedHarness(SchedConflict, 0, 0)
			for _, s := range c.steps {
				if s.submit != "" {
					h.add(s.submit, s.path, s.chips...)
				}
				if s.complete != "" {
					h.complete(s.complete)
				}
			}
			if !reflect.DeepEqual(h.order, c.wantOrder) {
				t.Fatalf("issue order = %v, want %v", h.order, c.wantOrder)
			}
			d, _, _ := h.f.Counts()
			if d != c.wantDeferred {
				t.Fatalf("deferred = %d, want %d", d, c.wantDeferred)
			}
		})
	}
}

func TestConflictStarvationFreeze(t *testing.T) {
	h := newSchedHarness(SchedConflict, 0, 2)
	h.add("A", segs(PathSeg{SegH, 0}), 0)
	h.add("B", segs(PathSeg{SegH, 0}), 1) // defers behind A: queue head
	h.add("C", segs(PathSeg{SegH, 1}), 2) // fresh bypass #1
	h.add("D", segs(PathSeg{SegH, 2}), 3) // fresh bypass #2 -> frozen
	h.add("E", segs(PathSeg{SegH, 3}), 0) // path free, but queue is frozen
	if got := []string{"A", "C", "D"}; !reflect.DeepEqual(h.order, got) {
		t.Fatalf("pre-release issue order = %v, want %v", h.order, got)
	}
	h.complete("A") // unblocks the head; E follows in queue order
	want := []string{"A", "C", "D", "B", "E"}
	if !reflect.DeepEqual(h.order, want) {
		t.Fatalf("issue order = %v, want %v", h.order, want)
	}
	if d, _, _ := h.f.Counts(); d != 2 {
		t.Fatalf("deferred = %d, want 2 (B and E)", d)
	}
	h.complete("B")
	h.complete("C")
	h.complete("D")
	h.complete("E")
	if !h.f.Quiesced() {
		t.Fatal("scheduler not quiesced after all completions")
	}
}

func TestOOOPickerPrefersIdleDies(t *testing.T) {
	h := newSchedHarness(SchedOOO, 2, 0)
	h.add("A", nil, 0)
	h.add("B", nil, 0) // fills the window
	h.add("C", nil, 0) // pending, same die as the inflight pair
	h.add("D", nil, 1) // pending, idle die
	if got := []string{"A", "B"}; !reflect.DeepEqual(h.order, got) {
		t.Fatalf("window fill order = %v, want %v", h.order, got)
	}
	h.complete("A") // slot frees: D's die is idle, C's carries B -> pick D
	h.complete("B")
	want := []string{"A", "B", "D", "C"}
	if !reflect.DeepEqual(h.order, want) {
		t.Fatalf("issue order = %v, want %v", h.order, want)
	}
	_, reordered, forced := h.f.Counts()
	if reordered != 1 || forced != 0 {
		t.Fatalf("reordered = %d forced = %d, want 1, 0", reordered, forced)
	}
}

func TestOOOCopyScoresBothChips(t *testing.T) {
	h := newSchedHarness(SchedOOO, 1, 0)
	h.add("A", nil, 0)
	h.complete("A")
	h2 := newSchedHarness(SchedOOO, 2, 0)
	h2.add("A", nil, 0)
	h2.add("B", nil, 1)
	h2.add("C", nil, 0, 1) // copy touching both busy dies
	h2.add("D", nil, 2)    // idle die
	h2.complete("A")       // C scores 1 (B on die 1), D scores 0 -> D first
	want := []string{"A", "B", "D", "C"}
	h2.complete("B")
	if !reflect.DeepEqual(h2.order, want) {
		t.Fatalf("issue order = %v, want %v", h2.order, want)
	}
}

func TestOOOStarvationForcedPick(t *testing.T) {
	h := newSchedHarness(SchedOOO, 2, 1)
	h.add("A", nil, 0)
	h.add("B", nil, 0)
	h.add("C", nil, 0) // will be bypassed once by D
	h.add("D", nil, 1)
	h.add("E", nil, 1)
	h.complete("A") // picks D over C: C.bypassed = 1 = bound
	h.complete("D") // C is starved -> forced pick even though E's die looks no worse
	want := []string{"A", "B", "D", "C"}
	if !reflect.DeepEqual(h.order, want) {
		t.Fatalf("issue order = %v, want %v", h.order, want)
	}
	if _, _, forced := h.f.Counts(); forced != 1 {
		t.Fatalf("forced = %d, want 1", forced)
	}
}

func TestOOOWindowOneIsFIFO(t *testing.T) {
	h := newSchedHarness(SchedOOO, 1, 0)
	// Arrivals deliberately favour reordering: later ops target idle
	// dies while earlier ones pile on die 0.
	h.add("A", nil, 0)
	h.add("B", nil, 0)
	h.add("C", nil, 1)
	h.add("D", nil, 2)
	for _, tag := range []string{"A", "B", "C", "D"} {
		h.complete(tag)
	}
	if want := []string{"A", "B", "C", "D"}; !reflect.DeepEqual(h.order, want) {
		t.Fatalf("ooo window=1 order = %v, want arrival order %v", h.order, want)
	}
}

// TestSchedDeterminism replays an identical pseudo-random op sequence on
// two fresh schedulers per policy: same seed, same issue order.
func TestSchedDeterminism(t *testing.T) {
	run := func(pol SchedPolicy, seed uint64) []string {
		h := newSchedHarness(pol, 3, 4)
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int(rng>>33) % n
		}
		all := []string{}
		submitted := 0
		// issuable lists submitted ops whose issue has fired, in arrival
		// order, so random completion stays deterministic.
		issuable := func() []string {
			out := []string{}
			for _, tag := range all {
				if _, ok := h.fins[tag]; ok {
					out = append(out, tag)
				}
			}
			return out
		}
		for i := 0; i < 64; i++ {
			if ready := issuable(); len(ready) > 0 && next(3) == 0 {
				h.complete(ready[next(len(ready))])
				continue
			}
			tag := fmt.Sprintf("op%d", i)
			chip := next(4)
			h.add(tag, segs(PathSeg{SegChip, chip}), chip)
			all = append(all, tag)
			submitted++
		}
		// Drain everything: completing issued ops releases deferred and
		// pending ones, which then issue and complete on a later pass.
		for !h.f.Quiesced() {
			ready := issuable()
			if len(ready) == 0 {
				t.Fatalf("%v: stuck with work outstanding", pol)
			}
			for _, tag := range ready {
				h.complete(tag)
			}
		}
		if len(h.order) != submitted {
			t.Fatalf("%v: issued %d of %d ops", pol, len(h.order), submitted)
		}
		return h.order
	}
	for _, pol := range []SchedPolicy{SchedConflict, SchedOOO} {
		a, b := run(pol, 42), run(pol, 42)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: same seed produced different issue orders\n%v\n%v", pol, a, b)
		}
	}
}

// recordingSchedChecker captures checker notifications for the hook test.
type recordingSchedChecker struct {
	reserved, released, issued, completed int
	maxInflight                           int
}

func (r *recordingSchedChecker) SchedReserved(op uint64, segs []PathSeg) { r.reserved++ }
func (r *recordingSchedChecker) SchedReleased(op uint64, segs []PathSeg) { r.released++ }
func (r *recordingSchedChecker) SchedIssued(op uint64, rank, window, bypassed, bound int) {
	r.issued++
}
func (r *recordingSchedChecker) SchedCompleted(op uint64, inflight int) {
	r.completed++
	if inflight > r.maxInflight {
		r.maxInflight = inflight
	}
}

// TestSchedFabricEndToEnd pushes real transactions through every policy
// on a live Omnibus fabric: all four op kinds complete, the wrapper
// quiesces, and the checker hooks balance.
func TestSchedFabricEndToEnd(t *testing.T) {
	for _, pol := range []SchedPolicy{SchedConflict, SchedOOO} {
		t.Run(pol.String(), func(t *testing.T) {
			e, g, soc := testRig(2, 2)
			inner := newOmnibus(e, g, soc, true)
			f := tune(NewSchedFabric(inner, pol), 2, 3)
			rec := &recordingSchedChecker{}
			f.SetChecker(rec)
			if f.Name() != inner.Name() || f.Grid() != inner.Grid() {
				t.Fatal("wrapper must delegate Name/Grid")
			}
			done := 0
			a := flash.PPA{Plane: 0, Block: 1, Page: 0}
			for ch := 0; ch < 2; ch++ {
				for w := 0; w < 2; w++ {
					f.Write(ChipID{ch, w}, []flash.ProgramOp{{Addr: a, Token: flash.Token(ch*2 + w)}}, func() { done++ })
				}
			}
			e.Run()
			for ch := 0; ch < 2; ch++ {
				for w := 0; w < 2; w++ {
					f.Read(ChipID{ch, w}, []flash.PPA{a}, func() { done++ })
				}
			}
			e.Run()
			f.Copy(ChipID{0, 0}, a, ChipID{1, 0}, flash.PPA{Plane: 1, Block: 1, Page: 0}, func() { done++ })
			f.Erase(ChipID{0, 1}, []flash.PPA{{Plane: 0, Block: 2}}, func() { done++ })
			e.Run()
			if done != 10 {
				t.Fatalf("%d of 10 transactions completed", done)
			}
			if !f.Quiesced() {
				t.Fatal("scheduler holds state after drain")
			}
			if rec.issued != 10 || rec.completed != 10 {
				t.Fatalf("checker saw %d issues, %d completions, want 10, 10", rec.issued, rec.completed)
			}
			if pol == SchedConflict && (rec.reserved != 5 || rec.released != 5) {
				// 4 reads + 1 copy reserve paths; writes and erases pass through.
				t.Fatalf("checker saw %d reservations, %d releases, want 5, 5", rec.reserved, rec.released)
			}
			if pol != SchedConflict && rec.reserved != 0 {
				t.Fatalf("%v reserved %d paths, want 0", pol, rec.reserved)
			}
			if g.Chip(ChipID{1, 0}).ContentAt(flash.PPA{Plane: 1, Block: 1, Page: 0}) != 0 {
				t.Fatal("copy did not move content")
			}
		})
	}
}

func TestSchedConfigDefaults(t *testing.T) {
	e, g, soc := testRig(2, 2)
	inner := newOmnibus(e, g, soc, false)
	f := NewSchedFabric(inner, SchedOOO)
	if f.Window() != DefaultSchedWindow || f.ReorderBound() != DefaultReorderBound {
		t.Fatalf("defaults = (%d, %d), want (%d, %d)", f.Window(), f.ReorderBound(), DefaultSchedWindow, DefaultReorderBound)
	}
	c := NewSchedFabric(inner, SchedConflict)
	if c.Window() != 0 {
		t.Fatalf("conflict policy reports window %d, want 0 (unwindowed)", c.Window())
	}
	if c.Policy() != SchedConflict || f.Policy() != SchedOOO {
		t.Fatal("Policy() mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewSchedFabric accepted SchedFIFO, which is the unwrapped fabric")
		}
	}()
	NewSchedFabric(inner, SchedFIFO)
}
