package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestSyntheticSequential(t *testing.T) {
	gen := Synthetic(SeqWrite, 64, 4, 1)
	for i := 0; i < 16; i++ {
		r := gen(i)
		if r.Kind != stats.Write {
			t.Fatal("seq-write produced a read")
		}
		want := int64((i * 4) % 64)
		if r.LPN != want || r.Pages != 4 {
			t.Fatalf("req %d: lpn=%d pages=%d, want lpn=%d pages=4", i, r.LPN, r.Pages, want)
		}
	}
}

func TestSyntheticRandomAligned(t *testing.T) {
	gen := Synthetic(RandRead, 1024, 4, 2)
	seen := make(map[int64]bool)
	for i := 0; i < 200; i++ {
		r := gen(i)
		if r.Kind != stats.Read {
			t.Fatal("rand-read produced a write")
		}
		if r.LPN%4 != 0 {
			t.Fatalf("unaligned LPN %d", r.LPN)
		}
		if r.LPN < 0 || r.LPN+4 > 1024 {
			t.Fatalf("LPN %d outside footprint", r.LPN)
		}
		seen[r.LPN] = true
	}
	if len(seen) < 50 {
		t.Fatalf("random generator too repetitive: %d distinct", len(seen))
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(RandWrite, 512, 2, 7)
	b := Synthetic(RandWrite, 512, 2, 7)
	for i := 0; i < 50; i++ {
		if a(i) != b(i) {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestPatternStrings(t *testing.T) {
	if SeqRead.String() != "seq-read" || RandWrite.String() != "rand-write" {
		t.Fatal("pattern strings wrong")
	}
	if SeqWrite.Kind() != stats.Write || RandRead.Kind() != stats.Read {
		t.Fatal("pattern kinds wrong")
	}
}

func TestGenerateRespectsParams(t *testing.T) {
	p := Params{ReadRatio: 0.7, ZipfS: 1.3, HotRegions: 16, ReqPages: 2, MeanGap: 10 * sim.Microsecond, Burst: 4}
	tr := Generate("test", p, 4096, 1000, 42)
	if len(tr.Requests) != 1000 {
		t.Fatalf("generated %d requests", len(tr.Requests))
	}
	reads, writes, frac := tr.Mix()
	if reads+writes != 1000 {
		t.Fatal("mix does not sum")
	}
	if frac < 0.6 || frac > 0.8 {
		t.Fatalf("read fraction = %.2f, want ~0.7", frac)
	}
	var prev sim.Time
	for _, r := range tr.Requests {
		if r.Arrival < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = r.Arrival
		if r.LPN < 0 || r.LPN+int64(r.Pages) > 4096 {
			t.Fatalf("request outside footprint: lpn=%d", r.LPN)
		}
	}
	if tr.Duration() <= 0 {
		t.Fatal("zero duration")
	}
}

func TestGenerateZipfSkew(t *testing.T) {
	// With strong skew, the busiest region should absorb far more than its
	// uniform share of requests.
	skewed := Generate("skew", Params{ReadRatio: 1, ZipfS: 1.5, HotRegions: 16, ReqPages: 1, MeanGap: sim.Microsecond, Burst: 1}, 1600, 4000, 1)
	uniform := Generate("flat", Params{ReadRatio: 1, ZipfS: 0, HotRegions: 16, ReqPages: 1, MeanGap: sim.Microsecond, Burst: 1}, 1600, 4000, 1)
	share := func(tr Trace) float64 {
		counts := make(map[int64]int)
		for _, r := range tr.Requests {
			counts[r.LPN/100]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(len(tr.Requests))
	}
	if share(skewed) < 2*share(uniform) {
		t.Fatalf("skewed max-region share %.3f not >> uniform %.3f", share(skewed), share(uniform))
	}
}

func TestNamedPresets(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("only %d presets", len(names))
	}
	for _, name := range names {
		tr, err := Named(name, 4096, 200, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tr.Requests) != 200 || tr.Name != name {
			t.Fatalf("%s: bad trace", name)
		}
		if why, err := Describe(name); err != nil || why == "" {
			t.Fatalf("%s: no description", name)
		}
	}
	if _, err := Named("nope", 4096, 10, 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
	// Bad sizes are errors, not Generate's panic.
	for _, c := range []struct {
		foot int64
		n    int
	}{{4096, 0}, {4096, -1}, {0, 10}, {1, 10}} {
		if _, err := Named("rocksdb-0", c.foot, c.n, 1); err == nil {
			t.Errorf("Named(footprint %d, n %d) accepted", c.foot, c.n)
		}
	}
	if _, err := Describe("nope"); err == nil {
		t.Fatal("unknown describe accepted")
	}
}

func TestPresetCharacters(t *testing.T) {
	// The read-ratio ordering that drives the experiments must hold:
	// search-0 is most read-heavy; update-0 most write-heavy.
	frac := func(name string) float64 {
		tr, err := Named(name, 8192, 2000, 5)
		if err != nil {
			t.Fatal(err)
		}
		_, _, f := tr.Mix()
		return f
	}
	if !(frac("search-0") > frac("web-0") && frac("web-0") > frac("rocksdb-0")) {
		t.Fatal("read-heavy ordering broken")
	}
	if !(frac("update-0") < frac("mail-0") && frac("mail-0") < frac("rocksdb-0")) {
		t.Fatal("write-heavy ordering broken")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr, err := Named("rocksdb-0", 2048, 150, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "rocksdb-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Requests) != len(tr.Requests) {
		t.Fatalf("round trip lost requests: %d vs %d", len(back.Requests), len(tr.Requests))
	}
	for i := range tr.Requests {
		if back.Requests[i] != tr.Requests[i] {
			t.Fatalf("request %d mutated: %+v vs %+v", i, back.Requests[i], tr.Requests[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"arrival_ps,op,lpn,pages\n1,X,2,3\n",
		"arrival_ps,op,lpn,pages\nnotanumber,R,2,3\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(bytes.NewBufferString(c), "bad"); err == nil {
			t.Fatalf("case %d: bad CSV accepted", i)
		}
	}
}

// ParsePattern inverts Pattern.String for all four patterns, ignoring
// case and surrounding space.
func TestParsePatternRoundTrip(t *testing.T) {
	for _, p := range []Pattern{SeqRead, SeqWrite, RandRead, RandWrite} {
		for _, spelled := range []string{p.String(), strings.ToUpper(p.String()), " " + p.String() + " "} {
			got, err := ParsePattern(spelled)
			if err != nil || got != p {
				t.Fatalf("ParsePattern(%q) = %v, %v; want %v", spelled, got, err, p)
			}
		}
	}
	if _, err := ParsePattern("bogus"); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}
