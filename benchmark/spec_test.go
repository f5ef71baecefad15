package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// spec is BENCHMARK.json, the benchmark's declaration.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	path := filepath.Join("..", "BENCHMARK.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// validate checks the declaration's own rules: legal and unique names
// and units, 2-8 workloads, 1-16 bounded end-to-end metrics including
// setup_s, 1-128 unbounded per-layer metrics.
func (s spec) validate() error {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if n := len(s.Command); n < 1 || n > 32 {
		bad("command has %d strings, want 1-32", n)
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			bad("command string %q", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		bad("%d paths, want 1-16", n)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			bad("path %q", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		bad("run_seconds %d, want 1-60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		bad("%d workloads, want 2-8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		bad("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		bad("%d per-layer metrics, want 1-128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			bad("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, n)
		}
		if seen[n] {
			bad("%s name %q used twice", kind, n)
		}
		seen[n] = true
	}
	for _, w := range s.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			bad("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	setup := false
	for i, list := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			name("metric", m.Name)
			if !unitRE.MatchString(m.Unit) {
				bad("metric %s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				bad("metric %s: better %q", m.Name, m.Better)
			}
			switch {
			case i == 0 && (m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25):
				bad("end-to-end metric %s: bound must be in [0, 0.25]", m.Name)
			case i == 1 && m.Bound != nil:
				bad("per-layer metric %s has a bound", m.Name)
			}
			if i == 0 && m.Name == "setup_s" {
				setup = m.Unit == "s" && m.Better == "lower"
			}
		}
	}
	if !setup {
		bad(`end-to-end metrics need setup_s in "s", better "lower"`)
	}
	if len(errs) > 0 {
		return fmt.Errorf("BENCHMARK.json: %s", strings.Join(errs, "; "))
	}
	return nil
}

// TestSpecMatchesCode checks that BENCHMARK.json passes its own rules and
// declares exactly the workloads, metrics, bounds and run length the code
// has.
func TestSpecMatchesCode(t *testing.T) {
	sp := loadSpec(t)
	if err := sp.validate(); err != nil {
		t.Fatal(err)
	}
	if sp.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, --seconds defaults to %d", sp.RunSeconds, runSeconds)
	}
	var wls []specWorkload
	for _, w := range workloads {
		wls = append(wls, specWorkload{Name: w.name, Why: w.why})
	}
	if !reflect.DeepEqual(sp.Workloads, wls) {
		t.Errorf("BENCHMARK.json workloads = %+v, code declares %+v", sp.Workloads, wls)
	}
	declared := func(ds []decl, bounded bool) []specMetric {
		var out []specMetric
		for _, d := range ds {
			m := specMetric{Name: d.name, Unit: d.unit, Better: d.better}
			if bounded {
				b := d.bound
				m.Bound = &b
			}
			out = append(out, m)
		}
		return out
	}
	for _, c := range []struct {
		name      string
		got, want []specMetric
	}{
		{"end_to_end", sp.EndToEnd, declared(endToEnd, true)},
		{"per_layer", sp.PerLayer, declared(perLayer, false)},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			want, _ := json.Marshal(c.want)
			t.Errorf("BENCHMARK.json %s differs from the code's declaration; want\n%s", c.name, want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	sp := loadSpec(t)
	breakers := map[string]func(*spec){
		"illegal name":  func(s *spec) { s.PerLayer[0].Name = "sim cpu" },
		"duplicate":     func(s *spec) { s.PerLayer[1].Name = s.PerLayer[0].Name },
		"one workload":  func(s *spec) { s.Workloads = s.Workloads[:1] },
		"loose bound":   func(s *spec) { b := 0.5; s.EndToEnd[0].Bound = &b },
		"layer bound":   func(s *spec) { b := 0.1; s.PerLayer[0].Bound = &b },
		"no setup_s":    func(s *spec) { s.EndToEnd = s.EndToEnd[:1] },
		"too many e2e":  func(s *spec) { s.EndToEnd = append(s.EndToEnd, make([]specMetric, 16)...) },
		"absolute path": func(s *spec) { s.Command = []string{"/bin/sh"} },
	}
	for name, brk := range breakers {
		s := sp
		s.Command = append([]string(nil), sp.Command...)
		s.Workloads = append([]specWorkload(nil), sp.Workloads...)
		s.EndToEnd = append([]specMetric(nil), sp.EndToEnd...)
		s.PerLayer = append([]specMetric(nil), sp.PerLayer...)
		brk(&s)
		if s.validate() == nil {
			t.Errorf("%s: validate accepted it", name)
		}
	}
}
