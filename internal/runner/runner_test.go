package runner

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ssd"
	"repro/internal/workload"
)

func TestMapOrderedResults(t *testing.T) {
	for _, p := range []int{1, 2, 4, 16} {
		got := Map(p, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: out[%d] = %d, want %d", p, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if got := Map(8, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0 returned %v, want nil", got)
	}
	got := Map(8, 1, func(i int) int { return 41 + i })
	if len(got) != 1 || got[0] != 41 {
		t.Fatalf("n=1 returned %v", got)
	}
}

func TestMapRunsEveryJobExactlyOnce(t *testing.T) {
	var calls [257]atomic.Int32
	Map(8, len(calls), func(i int) struct{} {
		calls[i].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("worker panic did not propagate")
		}
		if s, ok := v.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("propagated panic %v does not carry the job's value", v)
		}
	}()
	Map(4, 32, func(i int) int {
		if i == 7 {
			panic("boom")
		}
		return i
	})
}

// A labeled map must name the offending sweep point — index AND its
// config description — in the propagated panic, at any parallelism.
func TestMapLabeledPanicCarriesConfig(t *testing.T) {
	label := func(i int) string { return "arch=pnSSD/gc=SpGC/point=" + string(rune('a'+i)) }
	for _, p := range []int{1, 4} {
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatalf("parallel=%d: worker panic did not propagate", p)
				}
				s, ok := v.(string)
				if !ok {
					t.Fatalf("parallel=%d: propagated panic %v is not a message", p, v)
				}
				for _, want := range []string{"job 5", "arch=pnSSD/gc=SpGC/point=f", "kaboom"} {
					if !strings.Contains(s, want) {
						t.Fatalf("parallel=%d: panic %q missing %q", p, s, want)
					}
				}
			}()
			MapLabeled(p, 16, label, func(i int) int {
				if i == 5 {
					panic("kaboom")
				}
				return i
			})
		}()
	}
}

// The label function is only consulted on failure, so an expensive
// formatter costs nothing on the happy path.
func TestMapLabeledSuccessNeverCallsLabel(t *testing.T) {
	var calls atomic.Int64
	label := func(i int) string { calls.Add(1); return "x" }
	got := MapLabeled(4, 64, label, func(i int) int { return i + 1 })
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i+1)
		}
	}
	if calls.Load() != 0 {
		t.Fatalf("label called %d times on success, want 0", calls.Load())
	}
}

func TestMapLabeledNilLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MapLabeled(nil label) did not panic")
		}
	}()
	MapLabeled(1, 4, nil, func(i int) int { return i })
}

func TestSetDefaultClampsToOne(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	SetDefault(-3)
	if Default() != 1 {
		t.Fatalf("Default() = %d after SetDefault(-3), want 1", Default())
	}
	SetDefault(6)
	if Default() != 6 {
		t.Fatalf("Default() = %d, want 6", Default())
	}
}

// TestMapSimulationsDeterministic runs real (tiny) SSD simulations — the
// runner's actual payload — sequentially and at several parallelism
// levels and requires identical metrics: each run owns a private engine,
// so scheduling must not leak into results.
func TestMapSimulationsDeterministic(t *testing.T) {
	cfg := ssd.ScaledConfig()
	cfg.Geometry.BlocksPerPlane = 8
	cfg.Geometry.PagesPerBlock = 16
	run := func(i int) [2]float64 {
		s := ssd.New(ssd.Archs[i%len(ssd.Archs)], cfg)
		foot := s.Config.LogicalPages()
		s.Host.Warmup(foot)
		gen := workload.Synthetic(workload.RandRead, foot, 2, int64(i+1))
		s.Host.RunClosedLoop(gen, 4, 40)
		s.Run()
		m := s.Metrics()
		return [2]float64{m.MeanLatency().Microseconds(), m.KIOPS()}
	}
	want := Map(1, 12, run)
	for _, p := range []int{2, 8} {
		got := Map(p, 12, run)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallel=%d: run %d = %v, sequential %v", p, i, got[i], want[i])
			}
		}
	}
}

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s not written: %v", p, err)
		}
	}
	if _, err := StartProfiles(filepath.Join(dir, "missing", "cpu.pprof"), ""); err == nil {
		t.Fatal("unwritable CPU profile path accepted")
	}
	stop, err = StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
}
