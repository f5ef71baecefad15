package sim

import (
	"testing"
	"testing/quick"
)

// frac converts a busy-time window to utilization, the Fig 3 conversion.
func frac(w *Windowed) func(Time) float64 {
	return func(b Time) float64 { return float64(b) / float64(w.Window()) }
}

func TestWindowedCredits(t *testing.T) {
	equal := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", name, got, want)
			}
		}
	}

	// An empty interval earns no credit and opens no window.
	busy := NewWindowed(10 * Microsecond)
	busy.AddBusy(7*Microsecond, 7*Microsecond)
	if busy.Len() != 0 || busy.Total() != 0 {
		t.Fatalf("empty interval credited: Len %d, Total %v", busy.Len(), busy.Total())
	}
	// An interval ending on a window boundary does not open the next one.
	edge := NewWindowed(10)
	edge.AddBusy(0, 20)
	if edge.Len() != 2 {
		t.Fatalf("Len = %d after [0,20) with window 10, want 2", edge.Len())
	}

	// Weighted credit: depth 2 over [0,5), depth 4 over [20,25).
	depth := NewWindowed(10)
	depth.AddWeighted(0, 5, 2)
	depth.AddWeighted(20, 25, 4)
	equal("mean depth", depth.Values(3, frac(depth)), []float64{1.0, 0, 2.0})

	// Point counts, padded past the recorded range with zeros.
	counts := NewWindowed(10)
	counts.AddPoint(3, 1)
	counts.AddPoint(9, 2)
	counts.AddPoint(30, 5)
	equal("counts", counts.Values(6, func(v Time) float64 { return float64(v) }), []float64{3, 0, 0, 5, 0, 0})

	// Clone is independent of the original.
	c := counts.Clone()
	c.AddPoint(0, 10)
	if counts.Total() != 8 || c.Total() != 18 {
		t.Fatalf("clone shares state: original %d, clone %d", counts.Total(), c.Total())
	}
}

// TestUtilRecorderWindows checks interval credit as the Fig 3 utilization
// series reads it: a busy interval is split across the windows it covers.
func TestUtilRecorderWindows(t *testing.T) {
	u := NewWindowed(10 * Microsecond)
	u.AddBusy(5*Microsecond, 25*Microsecond) // half of window 0, all of window 1, half of window 2
	s := u.Values(u.Len(), frac(u))
	want := []float64{0.5, 1.0, 0.5}
	if len(s) != len(want) {
		t.Fatalf("series = %v, want %v", s, want)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("series = %v, want %v", s, want)
		}
	}
	if u.Total() != 20*Microsecond {
		t.Fatalf("Total = %v, want 20us", u.Total())
	}
}

func TestWindowedRejectsBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero window":       func() { NewWindowed(0) },
		"inverted interval": func() { NewWindowed(10).AddBusy(5, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: every kind of credit is conserved — the sum over windows is
// the interval length, weight × length, or the point count, for any
// window size, position, and length.
func TestWindowedConservationProperty(t *testing.T) {
	prop := func(winRaw, fromRaw, lenRaw uint16, weightRaw, nRaw uint8) bool {
		win := Time(winRaw%500) + 1
		from := Time(fromRaw % 2000)
		length := Time(lenRaw % 2000)
		weight := int64(weightRaw % 16)
		n := int64(nRaw)

		busy := NewWindowed(win)
		busy.AddBusy(from, from+length)
		weighted := NewWindowed(win)
		weighted.AddWeighted(from, from+length, weight)
		points := NewWindowed(win)
		points.AddPoint(from, n)
		points.AddPoint(from+length, 1)
		return busy.Total() == length &&
			weighted.Total() == length*Time(weight) &&
			points.Total() == Time(n+1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
