// Command report renders telemetry run documents as one self-contained
// HTML file: inline SVG sparklines for every windowed series (with the
// rebuild window shaded when the run carries rebuild marks) and stacked
// per-phase latency-attribution bars. It accepts both run-document
// shapes the repo produces — the device summary JSON written by
// `cmd/experiments -metrics-json` (when telemetry was enabled) and the
// array run document written by `cmd/experiments -fig array -telemetry`
// — and the output embeds no external assets, so it can be archived
// alongside the raw JSON.
//
//	go run ./cmd/experiments -fig array -quick -telemetry tel.json
//	go run ./cmd/report -o report.html tel.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/report"
	"repro/internal/telemetry"
)

// runDoc is the union of the two input shapes. Decoding is lenient:
// unknown fields are ignored, so a plain ssd.Summary and an
// exp.ArrayTelemetryDoc both land here, each filling its own subset.
type runDoc struct {
	// exp.ArrayTelemetryDoc fields.
	Name      string  `json:"name"`
	GC        string  `json:"gc"`
	Scenario  string  `json:"scenario"`
	MeanMs    float64 `json:"mean_ms"`
	P99Ms     float64 `json:"p99_ms"`
	RebuildMs float64 `json:"rebuild_ms"`

	// ssd.Summary fields.
	Arch     string  `json:"arch"`
	Requests int64   `json:"requests"`
	KIOPS    float64 `json:"kiops"`

	Telemetry *telemetry.Summary `json:"telemetry"`
}

func main() {
	out := flag.String("o", "report.html", "output HTML file")
	title := flag.String("title", "simulation run report", "document title")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: report [-o out.html] run.json [run2.json ...]")
		os.Exit(2)
	}

	var runs []report.HTMLRun
	for _, path := range flag.Args() {
		doc, err := load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runs = append(runs, toHTMLRun(path, doc))
	}

	fh, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "create %s: %v\n", *out, err)
		os.Exit(1)
	}
	defer fh.Close()
	if err := report.WriteHTML(fh, *title, runs); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d run(s)\n", *out, len(runs))
}

func load(path string) (*runDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc runDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Telemetry == nil {
		return nil, fmt.Errorf("%s: no telemetry section — produce the input with "+
			"`experiments -fig array -telemetry` or `-metrics-json` on a telemetry-enabled run", path)
	}
	return &doc, nil
}

// toHTMLRun flattens one run document into the renderer's shape.
func toHTMLRun(path string, doc *runDoc) report.HTMLRun {
	tel := doc.Telemetry
	title := doc.Name
	if title == "" {
		title = doc.Arch + " run"
	}
	r := report.HTMLRun{Title: title, WindowUs: tel.WindowUs}

	meta := func(k, format string, v any, skip bool) {
		if !skip {
			r.Meta = append(r.Meta, [2]string{k, fmt.Sprintf(format, v)})
		}
	}
	meta("source", "%s", path, false)
	meta("architecture", "%s", doc.Arch, doc.Arch == "")
	meta("gc", "%s", doc.GC, doc.GC == "")
	meta("scenario", "%s", doc.Scenario, doc.Scenario == "")
	meta("requests", "%d", doc.Requests, false)
	meta("windows", "%d", tel.Windows, false)
	meta("window", "%.0f us", tel.WindowUs, false)
	meta("mean latency", "%.2f ms", doc.MeanMs, doc.MeanMs == 0)
	meta("p99 latency", "%.2f ms", doc.P99Ms, doc.P99Ms == 0)
	meta("rebuild time", "%.1f ms", doc.RebuildMs, doc.RebuildMs == 0)
	meta("throughput", "%.1f KIOPS", doc.KIOPS, doc.KIOPS == 0)
	meta("attribution violations", "%d", tel.AttributionViolations, tel.AttributionViolations == 0)

	for _, s := range tel.Series {
		r.Series = append(r.Series, report.HTMLSeries{Name: s.Name, Unit: s.Unit, Values: s.Values})
	}
	for _, m := range tel.Marks {
		r.Marks = append(r.Marks, report.HTMLMark{Name: m.Name, AtUs: m.AtUs})
	}
	// Group attribution rows by request kind, preserving summary order.
	byKind := map[string]int{}
	for _, p := range tel.Phases {
		i, ok := byKind[p.Kind]
		if !ok {
			i = len(r.Phases)
			byKind[p.Kind] = i
			r.Phases = append(r.Phases, report.HTMLPhaseGroup{Kind: p.Kind})
		}
		r.Phases[i].Phases = append(r.Phases[i].Phases, report.HTMLPhase{
			Name: p.Phase, Count: p.Count, Share: p.Share, MeanUs: p.MeanUs, P99Us: p.P99Us,
		})
	}
	return r
}
