package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/ftl"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// TestWarmRestoreMatchesFreshWarm saves one warm-up per cell on baseSSD
// and restores it into every arch: each restored device must equal a
// device of that arch warmed for real, field by field (FTL maps, planes,
// allocator, chips, map unit, checker), pass CheckConsistency, and give
// the same Summarize JSON on the same replayed trace.
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
					cells = append(cells, cell{fmt.Sprintf("geo%d/%v/%v/churn=%v", gi, policy, mode, churn), cfg, policy, churn})
				}
			}
		}
	}
	small := ssd.ScaledConfig()
	geos[0](&small)
	small.LogicalUtilization = gcUtilization
	small.FTL.GCMode = ftl.GCSpatial
	fmmu, checked, both := small, small, small
	fmmu.Mapping, fmmu.MapCacheEntries = "fmmu", 3
	checked.Check = &check.Config{}
	both.Mapping, both.MapCacheEntries, both.Check = "fmmu", 3, &check.Config{}
	cells = append(cells,
		cell{"fmmu", fmmu, ftl.PCWD, true},
		cell{"check", checked, ftl.PWCD, true},
		cell{"fmmu+check", both, ftl.PCWD, true})

	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			opt := Options{Cfg: &c.cfg, TraceRequests: 60, Seed: 5}.withDefaults()
			warm(build(ssd.ArchBase, c.cfg, c.cfg.FTL.GCMode, c.policy), opt, c.churn)
			for _, arch := range ssd.Archs {
				restored := build(arch, c.cfg, c.cfg.FTL.GCMode, c.policy)
				warm(restored, opt, c.churn)
				fresh := build(arch, c.cfg, c.cfg.FTL.GCMode, c.policy)
				install(fresh, c.churn, opt.Seed)
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

// deepDiff walks a and b field by field, unexported fields included, and
// returns the path of the first difference, or "" when they are equal.
// Function values compare by nil-ness alone, since two devices bind
// their callbacks to different objects; nil and empty slices and maps
// are equal.
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
// FTL of the same key; one that differs in nothing but its GC mode is
// refused.
func TestRestoreWarmRejectsOtherKey(t *testing.T) {
	cfg := *Quick().Cfg
	src := build(ssd.ArchBase, cfg, ftl.GCNone, ftl.PCWD)
	ws := src.FTL.SaveWarm(func() { install(src, false, 1) })
	dst := build(ssd.ArchBase, cfg, ftl.GCParallel, ftl.PCWD)
	defer func() {
		if recover() == nil {
			t.Fatal("RestoreWarm accepted a warm-up saved under another key")
		}
	}()
	dst.FTL.RestoreWarm(ws)
}
