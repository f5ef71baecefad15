package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one benchmark-side wall-clock interval around a public call.
type span struct {
	Name   string  `json:"name"`
	Run    string  `json:"run"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// spans records nested spans in memory for one run. A nil *spans records
// nothing, so timed code paths pass nil and pay one branch per call.
type spans struct {
	run  string
	t0   time.Time
	list []span
	open []int
}

func newSpans(run string) *spans { return &spans{run: run, t0: time.Now()} }

// do runs fn inside a span named name, parented to the innermost open one.
func (sp *spans) do(name string, fn func()) {
	if sp == nil {
		fn()
		return
	}
	id := len(sp.list) + 1
	parent := 0
	if n := len(sp.open); n > 0 {
		parent = sp.open[n-1]
	}
	sp.list = append(sp.list, span{Name: name, Run: sp.run, ID: id, Parent: parent, Start: sp.now()})
	sp.open = append(sp.open, id)
	defer func() {
		sp.open = sp.open[:len(sp.open)-1]
		sp.list[id-1].End = sp.now()
	}()
	fn()
}

func (sp *spans) now() float64 { return float64(time.Since(sp.t0).Nanoseconds()) / 1e3 }

// writeChrome writes runs of spans as Chrome trace-event JSON (open in
// Perfetto), one thread track per run.
func writeChrome(w io.Writer, runs [][]span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := []event{}
	for tid, run := range runs {
		for _, s := range run {
			events = append(events, event{
				Name: s.Name, Cat: "benchmark", Ph: "X", Ts: s.Start, Dur: s.End - s.Start, Pid: 1, Tid: tid + 1,
				Args: map[string]any{"run": s.Run, "id": s.ID, "parent": s.Parent},
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
