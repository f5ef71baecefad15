package host

import (
	"fmt"
	"reflect"
	"testing"
)

// saturate builds n queue views that never empty: every queue always
// has a head command of the given page cost.
func saturate(weights, bursts, costs []int) []QueueState {
	qs := make([]QueueState, len(weights))
	for i := range qs {
		qs[i] = QueueState{Len: 1 << 20, HeadPages: costs[i], Weight: weights[i], Burst: bursts[i]}
	}
	return qs
}

// serviceShares runs the arbiter for `grants` picks against saturated
// queues and returns commands granted and pages served per queue.
func serviceShares(a Arbiter, qs []QueueState, grants int) (cmds, pages []int) {
	cmds = make([]int, len(qs))
	pages = make([]int, len(qs))
	for g := 0; g < grants; g++ {
		i := a.Pick(qs)
		cmds[i]++
		pages[i] += costOf(qs[i])
	}
	return cmds, pages
}

func TestNewArbiter(t *testing.T) {
	kinds := map[string]Arbiter{"": &roundRobin{}, ArbRR: &roundRobin{}, ArbWRR: &weightedRR{}, ArbDWRR: &deficitWRR{}}
	for _, name := range append(ArbiterNames(), "") {
		a, err := NewArbiter(name)
		if err != nil {
			t.Fatalf("NewArbiter(%q): %v", name, err)
		}
		if got, want := reflect.TypeOf(a), reflect.TypeOf(kinds[name]); got != want {
			t.Fatalf("NewArbiter(%q) built a %v, want %v", name, got, want)
		}
	}
	if _, err := NewArbiter("priority"); err == nil {
		t.Fatal("NewArbiter accepted an unknown name")
	}
}

// TestArbiterServesOnlyNonEmpty: every arbiter must skip empty queues
// and always return a queue with work, from any starting rotation.
func TestArbiterServesOnlyNonEmpty(t *testing.T) {
	for _, name := range ArbiterNames() {
		t.Run(name, func(t *testing.T) {
			a, _ := NewArbiter(name)
			qs := []QueueState{
				{Len: 0},
				{Len: 3, HeadPages: 2, Weight: 2},
				{Len: 0},
				{Len: 1, HeadPages: 4, Weight: 1},
			}
			for g := 0; g < 50; g++ {
				i := a.Pick(qs)
				if qs[i].Len == 0 {
					t.Fatalf("grant %d: picked empty queue %d", g, i)
				}
			}
		})
	}
}

// TestArbiterStarvationFreedom: under full saturation, every queue must
// be served within its arbiter's rotation bound — rr within n grants,
// wrr within sum(weights), dwrr within enough rotations to accumulate
// the head command's cost.
func TestArbiterStarvationFreedom(t *testing.T) {
	weights := []int{1, 4, 2, 8}
	costs := []int{4, 1, 16, 2}
	bursts := []int{0, 0, 0, 0}
	n := len(weights)
	sumW := 0
	for _, w := range weights {
		sumW += w
	}
	cases := []struct {
		arb   string
		bound int // max grants elsewhere while a queue waits
	}{
		{ArbRR, n},
		{ArbWRR, sumW},
		// dwrr: a rotation serves at most sum(weight)*quantum/minCost
		// commands, and the 16-page head needs one quantum accumulation.
		{ArbDWRR, sumW * DWRRQuantumPages},
	}
	for _, tc := range cases {
		t.Run(tc.arb, func(t *testing.T) {
			a, _ := NewArbiter(tc.arb)
			qs := saturate(weights, bursts, costs)
			wait := make([]int, n)
			for g := 0; g < 5000; g++ {
				i := a.Pick(qs)
				for j := range wait {
					if j == i {
						wait[j] = 0
					} else {
						wait[j]++
						if wait[j] > tc.bound {
							t.Fatalf("queue %d waited %d grants (bound %d)", j, wait[j], tc.bound)
						}
					}
				}
			}
		})
	}
}

// TestWRRWeightProportionalCommands: under saturation, wrr's command
// share must match the weights exactly (each rotation serves exactly
// weight commands per queue).
func TestWRRWeightProportionalCommands(t *testing.T) {
	weights := []int{1, 3, 6}
	a, _ := NewArbiter(ArbWRR)
	qs := saturate(weights, []int{0, 0, 0}, []int{1, 1, 1})
	rotations := 100
	cmds, _ := serviceShares(a, qs, rotations*(1+3+6))
	for i, w := range weights {
		if cmds[i] != rotations*w {
			t.Fatalf("queue %d (weight %d): %d grants, want %d", i, w, cmds[i], rotations*w)
		}
	}
}

// TestDWRRWeightProportionalPages: dwrr's page share must track weights
// even when queues send different request sizes — the property that
// distinguishes it from wrr, whose command-count fairness lets a
// large-request tenant take a proportionally larger page share.
func TestDWRRWeightProportionalPages(t *testing.T) {
	weights := []int{1, 1, 2}
	costs := []int{8, 1, 4} // queue 0 sends big requests, queue 1 small
	a, _ := NewArbiter(ArbDWRR)
	qs := saturate(weights, []int{0, 0, 0}, costs)
	_, pages := serviceShares(a, qs, 20000)
	// Equal weights -> equal pages despite 8x request-size difference.
	ratio := float64(pages[0]) / float64(pages[1])
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("equal-weight queues served %d vs %d pages (ratio %.2f)", pages[0], pages[1], ratio)
	}
	// Double weight -> double pages.
	ratio = float64(pages[2]) / float64(pages[1])
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("weight-2 queue served %d pages vs weight-1's %d (ratio %.2f, want ~2)", pages[2], pages[1], ratio)
	}
}

// TestDWRRBurstCap: with a burst cap, a queue with abundant deficit
// still yields after Burst consecutive grants.
func TestDWRRBurstCap(t *testing.T) {
	a, _ := NewArbiter(ArbDWRR)
	qs := saturate([]int{8, 1}, []int{2, 0}, []int{1, 1})
	streak, maxStreak, last := 0, 0, -1
	for g := 0; g < 2000; g++ {
		i := a.Pick(qs)
		if i == last {
			streak++
		} else {
			streak = 1
			last = i
		}
		if i == 0 && streak > maxStreak {
			maxStreak = streak
		}
	}
	if maxStreak > 2 {
		t.Fatalf("burst-capped queue got %d consecutive grants (cap 2)", maxStreak)
	}
}

// TestWRRZeroWeightStillServed: weight 0 clamps to 1 rather than
// starving the queue.
func TestWRRZeroWeightStillServed(t *testing.T) {
	for _, name := range []string{ArbWRR, ArbDWRR} {
		a, _ := NewArbiter(name)
		qs := saturate([]int{0, 5}, []int{0, 0}, []int{1, 1})
		cmds, _ := serviceShares(a, qs, 600)
		if cmds[0] == 0 {
			t.Fatalf("%s: zero-weight queue never served", name)
		}
	}
}

// TestArbiterDeterminism: the same pick sequence against the same
// queue states must yield identical grants — the property the
// parallel-run byte-identity of the experiments rests on.
func TestArbiterDeterminism(t *testing.T) {
	for _, name := range ArbiterNames() {
		run := func() string {
			a, _ := NewArbiter(name)
			qs := saturate([]int{1, 2, 3}, []int{0, 2, 0}, []int{3, 1, 5})
			s := ""
			for g := 0; g < 500; g++ {
				s += fmt.Sprint(a.Pick(qs))
			}
			return s
		}
		if run() != run() {
			t.Fatalf("%s: two identical runs diverged", name)
		}
	}
}

func TestArbiterPanicsOnAllEmpty(t *testing.T) {
	for _, name := range ArbiterNames() {
		t.Run(name, func(t *testing.T) {
			a, _ := NewArbiter(name)
			defer func() {
				if recover() == nil {
					t.Fatal("Pick with all queues empty did not panic")
				}
			}()
			a.Pick([]QueueState{{Len: 0}, {Len: 0}})
		})
	}
}
