package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestNilRecorderIsInert verifies the disabled path: every exported method
// must be safe on a nil *Recorder, because the whole simulator calls them
// unconditionally through nil-receiver dispatch.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	r.ResourceHold(nil, "x", 0, 0, 0)
	r.ResourceQueue(nil, 1, 0)
	id := r.BeginSpan("cat", "name")
	if id != (SpanID{}) {
		t.Fatalf("nil BeginSpan returned live id %+v", id)
	}
	r.EndSpan(id)
	r.Instant("cat", "name")
	if r.Events() != 0 {
		t.Fatal("nil recorder counted events")
	}
	if h, w := r.Holds(); h != 0 || w != 0 {
		t.Fatal("nil recorder counted holds")
	}
	var buf bytes.Buffer
	if err := r.ExportChrome(&buf); err != nil {
		t.Fatalf("nil ExportChrome: %v", err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil export is not JSON: %v", err)
	}
}

// newTestRecorder builds a recorder with its own engine.
func newTestRecorder() (*sim.Engine, *Recorder) {
	eng := sim.NewEngine()
	return eng, New(eng)
}

func TestRecorderHolds(t *testing.T) {
	_, rec := newTestRecorder()
	rec.RegisterTrack("h0", KindHChannel)
	res := sim.NewResource(sim.NewEngine(), "h0")
	rec.ResourceHold(res, "xfer", 0, 0, 15*sim.Microsecond)
	rec.ResourceHold(res, "xfer", 20*sim.Microsecond, 30*sim.Microsecond, 35*sim.Microsecond)

	holds, waits := rec.Holds()
	if holds != 2 {
		t.Fatalf("holds = %d, want 2", holds)
	}
	if waits != 10*sim.Microsecond {
		t.Fatalf("wait total %v, want %v", waits, 10*sim.Microsecond)
	}
}

// trackNames returns the "<kind> <name>" label of every track the
// export declares, in registration order.
func trackNames(t *testing.T, rec *Recorder) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range doc.TraceEvents {
		if e.Name == "thread_name" {
			name, _ := e.Args["name"].(string)
			names = append(names, name)
		}
	}
	return names
}

func TestExportChromeStructure(t *testing.T) {
	_, rec := newTestRecorder()
	rec.RegisterTrack("h0", KindHChannel)
	res := sim.NewResource(sim.NewEngine(), "h0")
	rec.ResourceHold(res, "xfer", 0, 2*sim.Microsecond, 5*sim.Microsecond)
	id := rec.BeginSpan("req", "read", KV{"lpn", 42})
	rec.Instant("route", "v-return")
	rec.EndSpan(id, KV{"pages", 1})

	var buf bytes.Buffer
	if err := rec.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   float64         `json:"ts"`
			Dur  *float64        `json:"dur"`
			Tid  int             `json:"tid"`
			ID   string          `json:"id"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e.Ph]++
	}
	if phases["M"] < 2 {
		t.Fatalf("want process+thread metadata, got %d M events", phases["M"])
	}
	if phases["X"] != 1 || phases["b"] != 1 || phases["e"] != 1 || phases["i"] != 1 {
		t.Fatalf("phase counts %v", phases)
	}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Dur == nil || *e.Dur != 3.0 {
				t.Fatalf("complete event dur %v, want 3us", e.Dur)
			}
			if e.Ts != 2.0 {
				t.Fatalf("complete event ts %v, want 2us (granted time)", e.Ts)
			}
		case "b", "e":
			if !strings.HasPrefix(e.ID, "0x") {
				t.Fatalf("async event id %q not hex", e.ID)
			}
		}
	}
}

func TestSpanIDsPairUp(t *testing.T) {
	_, rec := newTestRecorder()
	a := rec.BeginSpan("req", "read")
	b := rec.BeginSpan("req", "write")
	if a == b {
		t.Fatal("distinct spans share an id")
	}
	rec.EndSpan(b)
	rec.EndSpan(a)
	rec.EndSpan(SpanID{}) // zero value must be a no-op
	var buf bytes.Buffer
	if err := rec.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	type ev struct {
		Ph string `json:"ph"`
		ID string `json:"id"`
	}
	var doc struct {
		TraceEvents []ev `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	begins, ends := map[string]int{}, map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "b" {
			begins[e.ID]++
		}
		if e.Ph == "e" {
			ends[e.ID]++
		}
	}
	if len(begins) != 2 || len(ends) != 2 {
		t.Fatalf("begin ids %v end ids %v", begins, ends)
	}
	for id := range begins {
		if ends[id] != begins[id] {
			t.Fatalf("span %s unbalanced: %d begins, %d ends", id, begins[id], ends[id])
		}
	}
}

func TestAutoRegisteredTrackGetsOtherKind(t *testing.T) {
	_, rec := newTestRecorder()
	res := sim.NewResource(sim.NewEngine(), "mystery")
	rec.ResourceHold(res, "hold", 0, 0, sim.Microsecond)
	if tr := trackNames(t, rec); len(tr) != 1 || tr[0] != KindOther+" mystery" {
		t.Fatalf("auto-registered tracks: %q", tr)
	}
}
