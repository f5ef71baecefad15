package ssd

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/ftl"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestMappingFlatByteIdentical pins the default-path contract of the
// mapping refactor: Mapping "" and "flat" build no map unit, so every
// artifact matches byte for byte and no map fields leak into the output.
func TestMappingFlatByteIdentical(t *testing.T) {
	refSummary, refChrome, refTel, ref := instrumentedArtifacts(t, func(*Config) {})
	if ref.FTL.MapEnabled() {
		t.Fatal("default config built a map unit")
	}
	summary, chrome, tel, s := instrumentedArtifacts(t, func(c *Config) { c.Mapping = "flat" })
	if s.FTL.MapEnabled() {
		t.Fatal("explicit flat built a map unit")
	}
	if !bytes.Equal(summary, refSummary) || !bytes.Equal(chrome, refChrome) || !bytes.Equal(tel, refTel) {
		t.Fatal("explicit flat output diverges from the default")
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
	cfg.Mapping = "fmmu"
	cfg.MapCacheEntries = 2 // tiny: force real miss traffic
	cfg.MapEviction = "lru"
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

// TestConfigValidateEnums walks every invalid-enum path through Validate
// and pins that each panic message names the accepted values, so a typo
// on the command line tells the user what to type instead.
func TestConfigValidateEnums(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"scheduler", func(c *Config) { c.Scheduler = "venice" },
			`unknown scheduler policy "venice" (want fifo, conflict, or ooo)`},
		{"mapping", func(c *Config) { c.Mapping = "dftl" },
			`unknown mapping mode "dftl" (want flat or fmmu)`},
		{"map-eviction", func(c *Config) { c.MapEviction = "random" },
			`unknown map eviction policy "random" (want clock or lru)`},
		{"map-cache-negative", func(c *Config) { c.MapCacheEntries = -1 },
			"negative map cache size -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig()
			tc.mut(&cfg)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Validate accepted invalid %s", tc.name)
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("panic value %T, want string", r)
				}
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q does not name the accepted values (%q)", msg, tc.want)
				}
			}()
			cfg.Validate()
		})
	}
}
