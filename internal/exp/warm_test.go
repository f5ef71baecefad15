package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/runner"
	"repro/internal/ssd"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestWarmRestoreMatchesFreshWarm saves one warm-up per cell on baseSSD
// and restores it into every arch: each restored device must equal a
// device of that arch warmed for real, field by field (FTL maps, planes,
// allocator, chips, map unit, checker), pass CheckConsistency, and give
// the same Summarize JSON on the same replayed trace. The cross cells
// save under PaGC with the default GC parameters and restore under
// another GC mode, victim policy, threshold and group fraction, none of
// which a warm-up reads.
func TestWarmRestoreMatchesFreshWarm(t *testing.T) {
	geos := []func(*ssd.Config){
		func(c *ssd.Config) { c.Geometry.BlocksPerPlane, c.Geometry.PagesPerBlock = 8, 16 },
		func(c *ssd.Config) {
			c.Channels, c.Ways = 4, 2
			c.Geometry.Planes, c.Geometry.BlocksPerPlane, c.Geometry.PagesPerBlock = 2, 16, 8
		},
		func(c *ssd.Config) {
			c.Channels, c.Ways = 2, 4
			c.Geometry.Planes, c.Geometry.BlocksPerPlane, c.Geometry.PagesPerBlock = 1, 12, 32
		},
	}
	type cell struct {
		name   string
		cfg    ssd.Config
		policy ftl.AllocPolicy
		churn  bool
		save   *ssd.Config // the saving device's config when not cfg
	}
	var cells []cell
	for gi, edit := range geos {
		for _, policy := range []ftl.AllocPolicy{ftl.PCWD, ftl.PWCD} {
			for _, mode := range []ftl.GCMode{ftl.GCNone, ftl.GCParallel, ftl.GCSpatial} {
				for _, churn := range []bool{false, true} {
					cfg := ssd.ScaledConfig()
					edit(&cfg)
					cfg.LogicalUtilization = gcUtilization
					cfg.FTL.GCMode = mode
					cells = append(cells, cell{fmt.Sprintf("geo%d/%v/%v/churn=%v", gi, policy, mode, churn), cfg, policy, churn, nil})
				}
			}
		}
	}
	small := ssd.ScaledConfig()
	geos[0](&small)
	small.LogicalUtilization = gcUtilization
	small.FTL.GCMode = ftl.GCSpatial
	fmmu, checked, both := small, small, small
	fmmu.FTL.Map = &ftl.MapConfig{Entries: 3}
	checked.Check = &check.Config{}
	both.FTL.Map, both.Check = &ftl.MapConfig{Entries: 3}, &check.Config{}
	cells = append(cells,
		cell{"fmmu", fmmu, ftl.PCWD, true, nil},
		cell{"check", checked, ftl.PWCD, true, nil},
		cell{"fmmu+check", both, ftl.PCWD, true, nil})
	saver := small
	saver.FTL.GCMode = ftl.GCParallel
	for _, mode := range []ftl.GCMode{ftl.GCNone, ftl.GCPreemptive, ftl.GCSpatial} {
		for _, policy := range []ftl.AllocPolicy{ftl.PCWD, ftl.PWCD} {
			cfg := small
			cfg.FTL.GCMode, cfg.FTL.Victim = mode, ftl.VictimCostBenefit
			cfg.FTL.GCThreshold, cfg.FTL.GCGroupFraction = 0.3, 0.25
			cells = append(cells, cell{fmt.Sprintf("cross/pagc->%v/%v", mode, policy), cfg, policy, true, &saver})
		}
	}

	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			opt := Options{Cfg: &c.cfg, TraceRequests: 60, Seed: 5}.withDefaults()
			save := c.cfg
			if c.save != nil {
				save = *c.save
			}
			warm(ssd.New(ssd.ArchBase, withFTL(save, save.FTL.GCMode, c.policy)), opt, c.churn)
			for _, arch := range ssd.Archs {
				restored := ssd.New(arch, withFTL(c.cfg, c.cfg.FTL.GCMode, c.policy))
				warm(restored, opt, c.churn)
				fresh := ssd.New(arch, withFTL(c.cfg, c.cfg.FTL.GCMode, c.policy))
				fresh.Precondition(churnOf(c.churn), opt.Seed)
				if err := restored.FTL.CheckConsistency(); err != nil {
					t.Fatalf("%v: restored device inconsistent: %v", arch, err)
				}
				if d := deepDiff(fresh, restored); d != "" {
					t.Fatalf("%v: restored device differs from a fresh warm-up at %s", arch, d)
				}
				var sums [2][]byte
				for i, s := range []*ssd.SSD{fresh, restored} {
					tr, err := workload.Named("rocksdb-0", s.Config.LogicalPages(), opt.TraceRequests, opt.Seed)
					if err != nil {
						t.Fatal(err)
					}
					s.Host.MustReplay(tr.Requests)
					s.Run()
					if sums[i], err = json.Marshal(s.Summarize()); err != nil {
						t.Fatal(err)
					}
				}
				if string(sums[0]) != string(sums[1]) {
					t.Fatalf("%v: summaries differ after the same trace\nfresh:    %s\nrestored: %s", arch, sums[0], sums[1])
				}
			}
			if n := len(opt.warmed.entries); n != 1 {
				t.Fatalf("%d warm-ups saved, want 1 shared by every arch", n)
			}
		})
	}
}

// TestResetRestoreMatchesFreshWarm: a device that ran a trace under one
// configuration and was reset to another of its structure equals a
// fresh build of the second field by field; with a saved warm-up
// restored into it, it equals a fresh build of the same arch and config
// warmed for real, and the two give the same Summarize JSON on the same
// trace. Every arch runs every cell: the plain GC device, the checker,
// the map unit, the front end, fault injection, both scheduling layers,
// and telemetry with tracing. The configuration it is reset to differs
// from the cell's in one per-run setting, or in none, or drops every
// opt-in instrument; the choice rotates with the arch, so each arch is
// reset across every one of them. The walk skips only the fields named
// in recycled.
func TestResetRestoreMatchesFreshWarm(t *testing.T) {
	base := ssd.ScaledConfig()
	base.Geometry.BlocksPerPlane, base.Geometry.PagesPerBlock = 8, 16
	base.LogicalUtilization = gcUtilization
	base.FTL.GCMode = ftl.GCSpatial
	type cfgEdit struct {
		name string
		edit func(*ssd.Config)
	}
	cells := []cfgEdit{
		{"plain", func(*ssd.Config) {}},
		{"check", func(c *ssd.Config) { c.Check = &check.Config{} }},
		{"fmmu", func(c *ssd.Config) { c.FTL.Map = &ftl.MapConfig{Entries: 3}; c.Check = &check.Config{} }},
		{"frontend", func(c *ssd.Config) {
			c.Frontend = &host.FrontendConfig{Tenants: workload.QueueConfigs(NoisyNeighborSpecs(40)), Arbiter: "dwrr", MaxInflight: 16}
			c.Check = &check.Config{}
		}},
		{"fault", func(c *ssd.Config) {
			c.FTL.GCMode = ftl.GCParallel
			c.Fault = &fault.Config{Seed: 3, ReadECCRate: 0.02, OnDieECCRate: 0.02, GrantDropRate: 0.05, ProgramFailsPerChip: 1, EraseFailsPerChip: 1}
		}},
		{"conflict", func(c *ssd.Config) { c.Scheduler = controller.SchedConflict; c.Check = &check.Config{} }},
		{"ooo", func(c *ssd.Config) { c.Scheduler = controller.SchedOOO }},
		{"telemetry", func(c *ssd.Config) { c.Telemetry, c.Trace = &telemetry.Config{}, &trace.Config{} }},
	}
	// to edits a cell's configuration into the one its device is reset
	// to. Without a map unit the logical utilization is per run; with
	// one it is structure, and that cell is reset to its own.
	to := []cfgEdit{
		{"same", func(*ssd.Config) {}},
		{"policy", func(c *ssd.Config) { c.FTL.Policy = ftl.PWCD }},
		{"gc-mode", func(c *ssd.Config) { c.FTL.GCMode = ftl.GCPreemptive }},
		{"victim", func(c *ssd.Config) { c.FTL.Victim = ftl.VictimCostBenefit }},
		{"threshold", func(c *ssd.Config) { c.FTL.GCThreshold = 0.3 }},
		{"group-fraction", func(c *ssd.Config) { c.FTL.GCGroupFraction = 0.25 }},
		{"utilization", func(c *ssd.Config) {
			if c.FTL.Map == nil {
				c.LogicalUtilization = 0.7
			}
		}},
		{"bare", func(c *ssd.Config) { c.Check, c.Fault, c.Frontend, c.Telemetry, c.Trace = nil, nil, nil, nil, nil }},
	}
	run := func(t *testing.T, s *ssd.SSD, trace string, seed int64) {
		t.Helper()
		if s.Frontend != nil {
			tr, err := workload.GenerateTenants(NoisyNeighborSpecs(40), s.Config.LogicalPages(), seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Frontend.Replay(tr.Requests); err != nil {
				t.Fatal(err)
			}
		} else {
			tr, err := workload.Named(trace, s.Config.LogicalPages(), 80, seed)
			if err != nil {
				t.Fatal(err)
			}
			s.Host.MustReplay(tr.Requests)
		}
		s.Run()
	}
	for ci, cell := range cells {
		for ai, arch := range ssd.Archs {
			b := to[(ci+ai)%len(to)]
			t.Run(fmt.Sprintf("%s/%v", cell.name, arch), func(t *testing.T) {
				t.Run("to-"+b.name, func(t *testing.T) {
					cfg := base
					cell.edit(&cfg)
					next := cfg
					b.edit(&next)
					opt := Options{Cfg: &cfg, Seed: 5}.withDefaults()
					warm(ssd.New(arch, next), opt, true) // saves next's warm-up
					used := ssd.New(arch, cfg)
					warm(used, opt, true)
					run(t, used, "update-0", 9)
					used.Reset(next)
					if d := deepDiff(ssd.New(arch, next), used); d != "" {
						t.Fatalf("reset device differs from a fresh build at %s", d)
					}
					warm(used, opt, true)
					fresh := ssd.New(arch, next)
					fresh.Precondition(churnFraction, opt.Seed)
					if d := deepDiff(fresh, used); d != "" {
						t.Fatalf("reset and restored device differs from a fresh warm-up at %s", d)
					}
					var sums [2][]byte
					for i, s := range []*ssd.SSD{fresh, used} {
						run(t, s, "rocksdb-0", 7)
						var err error
						if sums[i], err = json.Marshal(s.Summarize()); err != nil {
							t.Fatal(err)
						}
					}
					if string(sums[0]) != string(sums[1]) {
						t.Fatalf("summaries differ after the same trace\nfresh:    %s\nrecycled: %s", sums[0], sums[1])
					}
				})
			})
		}
	}
}

// recycled names the fields deepDiff skips besides every sim.Pool of
// recycled operation records, as "package.Type.field": the spare
// parked-continuation lists, and the completions bound at first use
// (the chip's one grant hook and one completion, the FTL's GC victim
// completion), which a reset device keeps and a fresh one has not made
// yet. Everything else, any field added later included, is compared.
var recycled = map[string]bool{
	"flash.Chip.grantOp":           true,
	"flash.Chip.finishOp":          true,
	"ftl.FTL.victimDone":           true,
	"ftl.parkedLists[int64].spare": true,
	"ftl.parkedLists[int].spare":   true,
}

// isPool reports whether t is a sim.Pool, which a reset device keeps
// filled and a fresh one has not filled yet.
func isPool(t reflect.Type) bool {
	return t.PkgPath() == "repro/internal/sim" && strings.HasPrefix(t.Name(), "Pool[")
}

// deepDiff walks a and b field by field, unexported fields included, and
// returns the path of the first difference, or "" when they are equal.
// Function values compare by nil-ness alone, since two devices bind
// their callbacks to different objects; nil and empty slices and maps
// are equal. Pools and the fields named in recycled are skipped.
func deepDiff(a, b any) string {
	seen := make(map[[2]uintptr]bool)
	// walk returns "" or the difference's path below x, which the
	// callers above prefix with theirs.
	var walk func(x, y reflect.Value) string
	walk = func(x, y reflect.Value) string {
		if x.Type() != y.Type() {
			return ": types differ"
		}
		switch x.Kind() {
		case reflect.Bool:
			if x.Bool() != y.Bool() {
				return fmt.Sprintf(": %v != %v", x.Bool(), y.Bool())
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			if x.Int() != y.Int() {
				return fmt.Sprintf(": %d != %d", x.Int(), y.Int())
			}
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			if x.Uint() != y.Uint() {
				return fmt.Sprintf(": %d != %d", x.Uint(), y.Uint())
			}
		case reflect.Float32, reflect.Float64:
			if math.Float64bits(x.Float()) != math.Float64bits(y.Float()) {
				return fmt.Sprintf(": %v != %v", x.Float(), y.Float())
			}
		case reflect.String:
			if x.String() != y.String() {
				return fmt.Sprintf(": %q != %q", x.String(), y.String())
			}
		case reflect.Func, reflect.Chan, reflect.UnsafePointer:
			if x.IsNil() != y.IsNil() {
				return ": nil-ness differs"
			}
		case reflect.Pointer, reflect.Interface:
			if x.IsNil() || y.IsNil() {
				if x.IsNil() != y.IsNil() {
					return ": nil-ness differs"
				}
				return ""
			}
			if x.Kind() == reflect.Pointer {
				k := [2]uintptr{x.Pointer(), y.Pointer()}
				if seen[k] {
					return ""
				}
				seen[k] = true
			}
			return walk(x.Elem(), y.Elem())
		case reflect.Struct:
			for i := 0; i < x.NumField(); i++ {
				if f := x.Type().Field(i); isPool(f.Type) || recycled[x.Type().String()+"."+f.Name] {
					continue
				}
				if d := walk(x.Field(i), y.Field(i)); d != "" {
					return "." + x.Type().Field(i).Name + d
				}
			}
		case reflect.Slice, reflect.Array:
			if x.Len() != y.Len() {
				return fmt.Sprintf(": len %d != %d", x.Len(), y.Len())
			}
			for i := 0; i < x.Len(); i++ {
				if d := walk(x.Index(i), y.Index(i)); d != "" {
					return fmt.Sprintf("[%d]", i) + d
				}
			}
		case reflect.Map:
			if x.Len() != y.Len() {
				return fmt.Sprintf(": len %d != %d", x.Len(), y.Len())
			}
			ys := make(map[string]reflect.Value, y.Len())
			for it := y.MapRange(); it.Next(); {
				ys[mapKey(it.Key())] = it.Value()
			}
			for it := x.MapRange(); it.Next(); {
				k := mapKey(it.Key())
				yv, ok := ys[k]
				if !ok {
					return "[" + k + "]: missing"
				}
				if d := walk(it.Value(), yv); d != "" {
					return "[" + k + "]" + d
				}
			}
		default:
			panic(fmt.Sprintf("deepDiff: unhandled kind %v", x.Kind()))
		}
		return ""
	}
	return walk(reflect.ValueOf(a), reflect.ValueOf(b))
}

// mapKey renders a map key read through unexported fields as a string
// that two devices' equal keys share.
func mapKey(k reflect.Value) string {
	switch k.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return fmt.Sprint(k.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return fmt.Sprint(k.Uint())
	case reflect.String:
		return fmt.Sprintf("%q", k.String())
	case reflect.Array:
		s := "["
		for i := 0; i < k.Len(); i++ {
			s += mapKey(k.Index(i)) + " "
		}
		return s + "]"
	case reflect.Struct:
		s := "{"
		for i := 0; i < k.NumField(); i++ {
			s += mapKey(k.Field(i)) + " "
		}
		return s + "}"
	}
	panic(fmt.Sprintf("deepDiff: unhandled map key kind %v", k.Kind()))
}

// TestRestoreWarmRejectsOtherKey: a saved warm-up restores only into an
// FTL of the same key; one that differs in nothing but its allocation
// policy is refused.
func TestRestoreWarmRejectsOtherKey(t *testing.T) {
	cfg := *Quick().Cfg
	src := ssd.New(ssd.ArchBase, withFTL(cfg, ftl.GCNone, ftl.PCWD))
	ws := src.FTL.SaveWarm(func() { src.Precondition(0, 1) })
	dst := ssd.New(ssd.ArchBase, withFTL(cfg, ftl.GCNone, ftl.PWCD))
	defer func() {
		if recover() == nil {
			t.Fatal("RestoreWarm accepted a warm-up saved under another key")
		}
	}()
	dst.FTL.RestoreWarm(ws)
}

// TestFig19WarmsOnce: every Fig 19 device, whatever its arch and GC
// mode, starts from the same churned PCWD state, so a Quick() run makes
// one real warm-up and restores it into every other device.
func TestFig19WarmsOnce(t *testing.T) {
	opt := Quick()
	opt.warmed = &warmCache{entries: make(map[warmKey]*warmEntry)}
	Fig19(opt)
	if n := len(opt.warmed.entries); n != 1 {
		t.Fatalf("Fig 19 made %d real warm-ups, want 1", n)
	}
}

// TestFiguresShareDevices: figure calls given one Quick() Options take
// their devices from one pool keyed by arch and structure. At one worker
// Fig 16 builds one device per arch, and Fig 17 and Fig 19, whose
// allocation policy, GC mode and utilization differ from Fig 16's,
// build none: every device they run on is one of Fig 16's, reset.
func TestFiguresShareDevices(t *testing.T) {
	prev := runner.Default()
	defer runner.SetDefault(prev)
	runner.SetDefault(1)
	opt := Quick()
	pooled := func() (n int) {
		for _, idle := range opt.devices.idle {
			n += len(idle)
		}
		return n
	}
	for _, fig := range []struct {
		name string
		run  func(Options)
	}{
		{"Fig16", func(o Options) { Fig16(o) }},
		{"Fig17", func(o Options) { Fig17(o) }},
		{"Fig19", func(o Options) { Fig19(o) }},
	} {
		fig.run(opt)
		if n := pooled(); n != len(ssd.Archs) {
			t.Fatalf("after %s the pool holds %d devices, want %d (one per arch)", fig.name, n, len(ssd.Archs))
		}
	}
}
