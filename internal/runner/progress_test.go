package runner

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestProgressReportsBatch: with reporting enabled, a Map batch emits
// at least the final line, carrying the job count and the event column
// from the supplied counter.
func TestProgressReportsBatch(t *testing.T) {
	defer EnableProgress(nil, nil)
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	EnableProgress(w, func() int64 { return 1_500_000 })
	out := Map(4, 8, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	mu.Lock()
	got := buf.String()
	mu.Unlock()
	if !strings.Contains(got, "progress: 8/8 jobs") {
		t.Fatalf("no final progress line in %q", got)
	}
	if !strings.Contains(got, "1.5M events") {
		t.Fatalf("no event column in %q", got)
	}
	if !strings.Contains(got, "done in") {
		t.Fatalf("no completion time in %q", got)
	}
}

// TestProgressSequentialPath covers the parallel<=1 inline path with a
// nil event counter (event columns omitted).
func TestProgressSequentialPath(t *testing.T) {
	defer EnableProgress(nil, nil)
	var buf bytes.Buffer
	EnableProgress(&buf, nil)
	MapLabeled(1, 3, func(i int) string { return "job" }, func(i int) int { return i })
	got := buf.String()
	if !strings.Contains(got, "progress: 3/3 jobs") {
		t.Fatalf("no final line in %q", got)
	}
	if strings.Contains(got, "events") {
		t.Fatalf("event column with nil counter in %q", got)
	}
}

// TestProgressDisabledIsSilent: the default (and post-disable) state
// writes nothing and costs only one atomic load per batch.
func TestProgressDisabledIsSilent(t *testing.T) {
	var buf bytes.Buffer
	EnableProgress(&buf, nil)
	EnableProgress(nil, nil)
	Map(2, 4, func(i int) int { return i })
	if buf.Len() != 0 {
		t.Fatalf("disabled reporter wrote %q", buf.String())
	}
}

// TestCountStr pins the humanized count format.
func TestCountStr(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		want string
	}{
		{0, "0"}, {999, "999"}, {1_000, "1.0k"}, {15_300, "15.3k"},
		{2_000_000, "2.0M"}, {3_500_000_000, "3.5G"},
	} {
		if got := countStr(tc.v); got != tc.want {
			t.Fatalf("countStr(%d) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
