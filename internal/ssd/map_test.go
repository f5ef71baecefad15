package ssd

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/ftl"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestMappingFlatByteIdentical pins the default-path contract of the
// mapping unit: a nil FTL.Map builds no map unit, two such runs match
// byte for byte, and no map fields leak into the output.
func TestMappingFlatByteIdentical(t *testing.T) {
	refSummary, refChrome, refTel, ref := instrumentedArtifacts(t, func(*Config) {})
	if ref.FTL.MapEnabled() {
		t.Fatal("default config built a map unit")
	}
	summary, chrome, tel, s := instrumentedArtifacts(t, func(c *Config) { c.FTL.Map = nil })
	if s.FTL.MapEnabled() {
		t.Fatal("nil FTL.Map built a map unit")
	}
	if !bytes.Equal(summary, refSummary) || !bytes.Equal(chrome, refChrome) || !bytes.Equal(tel, refTel) {
		t.Fatal("flat output is not reproducible")
	}
	for _, leak := range []string{`"mapping"`, `"map_hits"`, "map-stall"} {
		if bytes.Contains(refSummary, []byte(leak)) || bytes.Contains(refTel, []byte(leak)) {
			t.Fatalf("flat artifacts leak %s", leak)
		}
	}
}

// TestFmmuWiring covers the constructor plumbing end to end: the map
// unit is built with the configured cache size, the checker's map ledger
// engages under -check, telemetry grows the map-stall phase and the
// hit/miss series, and the run summary carries the map counters.
func TestFmmuWiring(t *testing.T) {
	cfg := tinyConfig()
	cfg.FTL.GCMode = ftl.GCSpatial
	cfg.LogicalUtilization = 0.75
	cfg.FTL.Map = &ftl.MapConfig{Entries: 2} // tiny: force real miss traffic
	cfg.Check = &check.Config{}
	cfg.Telemetry = &telemetry.Config{}
	s := New(ArchPnSSDSplit, cfg)
	if !s.FTL.MapEnabled() || s.FTL.MapCacheEntries() != 2 {
		t.Fatalf("map unit: enabled=%v entries=%d", s.FTL.MapEnabled(), s.FTL.MapCacheEntries())
	}
	if s.FTL.NumTranslationPages() == 0 {
		t.Fatal("no translation pages carved")
	}
	foot := s.Config.LogicalPages()
	s.Host.Warmup(foot)
	tr, err := workload.Named("rocksdb-0", foot, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.Host.MustReplay(tr.Requests)
	end := s.Run() // checker enabled: violations panic

	sum := s.Summarize()
	if sum.Mapping != "fmmu" || sum.MapLookups == 0 || sum.MapMisses == 0 || sum.MapFetches == 0 {
		t.Fatalf("summary map counters: %+v", sum)
	}
	if sum.MapMissRate <= 0 || sum.MapMissRate > 1 {
		t.Fatalf("MapMissRate = %v", sum.MapMissRate)
	}
	if resident, pend := s.Checker.MapCounts(); resident == 0 || pend != 0 {
		t.Fatalf("checker map ledger: resident=%d pendWB=%d after drain", resident, pend)
	}
	doc, err := json.Marshal(s.Telemetry.Summary(end))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"map-stall", "map_hits", "map_misses"} {
		if !bytes.Contains(doc, []byte(want)) {
			t.Fatalf("fmmu telemetry lacks %s", want)
		}
	}
}

// TestConfigValidateEnums walks the invalid paths through Validate:
// each enum error names the accepted values, so a typo on the command
// line tells the user what to type instead, and each config ssd.New
// would panic on inside the FTL is refused with an error first.
func TestConfigValidateEnums(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"scheduler", func(c *Config) { c.Scheduler = controller.SchedPolicy(7) },
			`unknown scheduler policy sched(7) (want fifo, conflict, or ooo)`},
		{"map-cache-negative", func(c *Config) { c.FTL.Map = &ftl.MapConfig{Entries: -1} },
			"negative map cache size -1"},
		// One page at 0.875 utilization exports no logical page.
		{"logical-pages-zero", func(c *Config) {
			c.Channels, c.Ways = 1, 1
			c.Geometry.Planes, c.Geometry.BlocksPerPlane, c.Geometry.PagesPerBlock = 1, 1, 1
		}, "logical capacity 0 must be in (0, 1)"},
		{"gc-group-fraction-zero", func(c *Config) { c.FTL.GCMode, c.FTL.GCGroupFraction = ftl.GCSpatial, 0 },
			"GCGroupFraction 0 must be in (0,1)"},
		{"gc-group-fraction-one", func(c *Config) { c.FTL.GCMode, c.FTL.GCGroupFraction = ftl.GCSpatial, 1 },
			"GCGroupFraction 1 must be in (0,1)"},
		// (2^62+1)·4·16 pages per chip wraps int64 to 64, under the bound.
		{"page-count-overflow", func(c *Config) {
			c.Channels, c.Ways = 1, 1
			c.Geometry.Planes, c.Geometry.BlocksPerPlane, c.Geometry.PagesPerBlock = 1<<62+1, 4, 16
		}, "exceed the int32 maps' bound"},
		// Three blocks cannot hold the map directory, two overwrite blocks
		// and a spare.
		{"map-region", func(c *Config) {
			c.Channels, c.Ways = 1, 1
			c.Geometry.Planes, c.Geometry.BlocksPerPlane = 1, 3
			c.FTL.Map = &ftl.MapConfig{}
		}, "the map region needs 4 blocks, the device has 3"},
		{"gc-mode", func(c *Config) { c.FTL.GCMode = ftl.GCMode(9) }, "unknown GC mode gcmode(9)"},
		{"victim-policy", func(c *Config) { c.FTL.Victim = ftl.VictimPolicy(7) },
			"unknown victim policy 7 (want greedy or cost-benefit)"},
		// The zero policy stripes along the plane dimension three times
		// and would put every page on one chip.
		{"alloc-order-zero", func(c *Config) { c.FTL.Policy = ftl.AllocPolicy{} },
			"allocation order [0 0 0] is not a permutation of plane, channel and way"},
		{"alloc-order-range", func(c *Config) { c.FTL.Policy = ftl.AllocPolicy{Order: [3]ftl.Dim{0, 1, 5}} },
			"allocation order [0 1 5] is not a permutation"},
		// The 4-block map region fits, but leaves no room for the
		// logical pages and the GC reserve, so a warm-up would run out
		// of space.
		{"map-warmup-capacity", func(c *Config) {
			c.Channels, c.Ways = 1, 1
			c.Geometry.Planes, c.Geometry.BlocksPerPlane, c.Geometry.PagesPerBlock = 1, 4, 8
			c.FTL.Map = &ftl.MapConfig{}
		}, "the map region needs 4 blocks, the device has 4, too few to also hold a 1-block GC reserve"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted invalid %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not say %q", err, tc.want)
			}
		})
	}
}
