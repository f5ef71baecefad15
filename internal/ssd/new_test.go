package ssd_test

import (
	"runtime"
	"testing"

	"repro/internal/exp"
	"repro/internal/ssd"
)

// newArchs names every architecture, mesh last, as the command line does.
var newArchs = []string{"base", "pssd", "pnssd", "pnssd+split", "nossd-pin", "nossd-free"}

// newAllocsMax bounds the allocations of one ssd.New on the -quick
// geometry. A device is built from a few device-wide slabs, so the count
// is the fixed objects of each layer plus one allocation per bus, die and
// mesh link resource; the mesh archs carry 240 links on top.
var newAllocsMax = map[string]float64{
	"base": 600, "pssd": 600, "pnssd": 600, "pnssd+split": 600,
	"nossd-pin": 1000, "nossd-free": 1000,
}

// quickConfig is the device every -quick experiment builds.
func quickConfig() ssd.Config { return *exp.Quick().Cfg }

// TestNewAllocs pins the construction cost of a device: chips, FTL
// plane state and maps come from slabs rather than thousands of small
// objects.
func TestNewAllocs(t *testing.T) {
	cfg := quickConfig()
	for _, name := range newArchs {
		arch, err := ssd.ParseArch(name)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(5, func() { ssd.New(arch, cfg) })
		if n > newAllocsMax[name] {
			t.Errorf("%s: ssd.New makes %.0f allocations, want <= %.0f", name, n, newAllocsMax[name])
		}
	}
}

// BenchmarkNew measures building one device of each architecture on the
// -quick geometry, the construction every experiment run pays.
func BenchmarkNew(b *testing.B) {
	cfg := quickConfig()
	for _, name := range newArchs {
		arch, err := ssd.ParseArch(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ssd.New(arch, cfg)
			}
		})
	}
}

// TestValidateRejectsInt32Overflow: a grid of 2^31 or more physical
// pages, which the FTL's int32 maps cannot index, is refused by Validate
// and by ssd.New before any device memory is allocated. One block per
// plane fewer is accepted.
func TestValidateRejectsInt32Overflow(t *testing.T) {
	panics := func(fn func()) (p bool) {
		defer func() { p = recover() != nil }()
		fn()
		return false
	}
	// The quick grid has 64 chips of 4 planes and 16-page blocks: 4,096
	// pages per block of each plane, so 2^19 blocks per plane is 2^31.
	for _, tc := range []struct {
		name   string
		blocks int
		reject bool
	}{
		{"below", 1<<19 - 1, false},
		{"at", 1 << 19, true},
		{"far-over", 1 << 30, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickConfig()
			cfg.Geometry.BlocksPerPlane = tc.blocks
			if err := cfg.Validate(); (err != nil) != tc.reject {
				t.Fatalf("Validate of %d pages: %v, want rejection %v", cfg.RawPages(), err, tc.reject)
			}
			if !tc.reject {
				return // a valid device this large is not built here
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if !panics(func() { ssd.New(ssd.ArchBase, cfg) }) {
				t.Fatal("ssd.New built an oversized device")
			}
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Fatalf("rejected ssd.New allocated %d bytes", n)
			}
		})
	}
}
