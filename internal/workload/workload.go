// Package workload generates the I/O streams the experiments run:
// closed-loop synthetic patterns (sequential/random read/write, Figs
// 16-18) and open-loop trace workloads modelled after the enterprise
// traces the paper replays (Exchange, RocksDB, web, mail, ...).
//
// The real trace files are not redistributable, so each named preset is a
// parametric generator tuned to the published characteristics that matter
// to the paper's results: read/write mix, spatial skew (which produces the
// read-channel imbalance of Fig 3), request size, arrival intensity, and
// burstiness. A CSV reader/writer allows replaying genuine traces when
// available.
package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Pattern is a closed-loop synthetic access pattern.
type Pattern int

// Synthetic patterns of Figs 16-18.
const (
	SeqRead Pattern = iota
	SeqWrite
	RandRead
	RandWrite
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case SeqRead:
		return "seq-read"
	case SeqWrite:
		return "seq-write"
	case RandRead:
		return "rand-read"
	case RandWrite:
		return "rand-write"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// ParsePattern resolves a pattern by its String name, ignoring case and
// surrounding space: seq-read, seq-write, rand-read, or rand-write.
func ParsePattern(name string) (Pattern, error) {
	for p := SeqRead; p <= RandWrite; p++ {
		if strings.EqualFold(strings.TrimSpace(name), p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown synthetic pattern %q", name)
}

// Kind returns the I/O direction of the pattern.
func (p Pattern) Kind() stats.IOKind {
	if p == SeqRead || p == RandRead {
		return stats.Read
	}
	return stats.Write
}

// Synthetic returns a closed-loop request generator over a footprint of
// LPNs with fixed request size (the paper's synthetic I/O is 64 KB = 4
// pages of 16 KB, exercising multi-plane commands).
func Synthetic(p Pattern, footprint int64, reqPages int, seed int64) func(i int) host.Request {
	if footprint <= 0 || reqPages <= 0 {
		panic("workload: invalid synthetic parameters")
	}
	rng := rand.New(rand.NewSource(seed))
	var cursor int64
	return func(i int) host.Request {
		var lpn int64
		switch p {
		case SeqRead, SeqWrite:
			lpn = cursor
			cursor = (cursor + int64(reqPages)) % footprint
		case RandRead, RandWrite:
			lpn = rng.Int63n(footprint)
			lpn -= lpn % int64(reqPages)
		}
		return host.Request{Kind: p.Kind(), LPN: lpn, Pages: reqPages}
	}
}

// Params tunes a trace generator.
type Params struct {
	// ReadRatio is the fraction of requests that are reads.
	ReadRatio float64
	// ZipfS > 1 skews request LPNs toward hot regions; 0 means uniform.
	// Because sequential warm-up with PCWD maps consecutive LPNs to
	// consecutive channels in round-robin, hot *regions* (not hot pages)
	// are what concentrates traffic on a subset of channels.
	ZipfS float64
	// HotRegions partitions the footprint; Zipf picks a region, then the
	// address is uniform within it. More skew + fewer regions = stronger
	// channel imbalance for reads (Fig 3).
	HotRegions int
	// RegionPages is the size of the *read-hot* window at the start of
	// each region, in pages. Because page-striping policies map
	// consecutive LPNs round-robin across channels, a hot window narrower
	// than one striping round (channels × planes pages) concentrates its
	// reads on a channel subset — the mechanism behind the paper's Fig 3
	// read imbalance. Writes ignore it and spread over the whole region,
	// keeping GC pressure realistic. 0 disables the window (reads use the
	// full region too).
	RegionPages int
	// ReqPages is the request size in pages.
	ReqPages int
	// MeanGap is the mean inter-arrival time of request bursts.
	MeanGap sim.Time
	// Burst is the number of requests arriving together.
	Burst int
}

// Trace is an open-loop workload.
type Trace struct {
	Name     string
	Requests []host.Request
	// Footprint is the highest LPN + request span the trace touches.
	Footprint int64
}

// checkSize reports whether a trace of n requests of p.ReqPages pages
// fits a footprint: Generate needs n > 0 and at least one request's span
// of LPNs.
func checkSize(p Params, footprint int64, n int) error {
	if p.ReqPages <= 0 || footprint < int64(p.ReqPages) || n <= 0 {
		return fmt.Errorf("workload: invalid generation parameters: %d requests of %d pages over a %d-page footprint (want requests > 0, pages > 0, footprint >= pages)",
			n, p.ReqPages, footprint)
	}
	return nil
}

// Generate builds a trace of n requests over a footprint of LPNs. It
// panics on parameters checkSize rejects.
func Generate(name string, p Params, footprint int64, n int, seed int64) Trace {
	if err := checkSize(p, footprint, n); err != nil {
		panic(err)
	}
	if p.Burst <= 0 {
		p.Burst = 1
	}
	if p.HotRegions <= 0 {
		p.HotRegions = 64
	}
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if p.ZipfS > 1 {
		zipf = rand.NewZipf(rng, p.ZipfS, 1, uint64(p.HotRegions-1))
	}
	regionSize := footprint / int64(p.HotRegions)
	if regionSize < int64(p.ReqPages) {
		regionSize = int64(p.ReqPages)
	}
	// Shuffle region order so "hot" regions are scattered over the address
	// space rather than always the low LPNs.
	perm := rng.Perm(p.HotRegions)
	// Each region's read-hot window sits at an independent random offset.
	// Region starts are all congruent modulo the striping round, so
	// anchoring windows at region starts would pile every hot window onto
	// the same channels; random offsets scatter them across (channel, way)
	// positions the way scattered hot files do on a real device.
	hotOff := make([]int64, p.HotRegions)
	for i := range hotOff {
		span := regionSize - int64(p.RegionPages)
		if p.RegionPages > 0 && span > 0 {
			off := rng.Int63n(span + 1)
			off -= off % int64(p.ReqPages)
			hotOff[i] = off
		}
	}

	reqs := make([]host.Request, 0, n)
	now := sim.Time(0)
	for len(reqs) < n {
		for b := 0; b < p.Burst && len(reqs) < n; b++ {
			kind := stats.Write
			if rng.Float64() < p.ReadRatio {
				kind = stats.Read
			}
			var region int64
			if zipf != nil {
				region = int64(perm[zipf.Uint64()])
			} else {
				region = rng.Int63n(int64(p.HotRegions))
			}
			base := region * regionSize
			window := regionSize
			if kind == stats.Read && p.RegionPages > 0 && int64(p.RegionPages) < regionSize {
				window = int64(p.RegionPages)
				base += hotOff[region]
			}
			span := window - int64(p.ReqPages)
			var off int64
			if span > 0 {
				off = rng.Int63n(span + 1)
			}
			lpn := base + off
			if lpn+int64(p.ReqPages) > footprint {
				lpn = footprint - int64(p.ReqPages)
			}
			reqs = append(reqs, host.Request{Arrival: now, Kind: kind, LPN: lpn, Pages: p.ReqPages})
		}
		gap := sim.Time(rng.ExpFloat64() * float64(p.MeanGap))
		now += gap
	}
	return Trace{Name: name, Requests: reqs, Footprint: footprint}
}

// preset describes one named workload family.
type preset struct {
	params Params
	why    string
}

// presets are tuned to the qualitative characteristics the paper reports
// for its trace suite: Exchange is read-skewed and bursty (the Fig 3
// imbalance example), RocksDB mixes compaction writes with hot random
// reads (the Fig 20 tail-latency example), web serving is read-dominated,
// mail and update streams are write-heavy.
var presets = map[string]preset{
	"exchange-0": {Params{ReadRatio: 0.60, ZipfS: 1.3, HotRegions: 32, RegionPages: 16, ReqPages: 2, MeanGap: 60 * sim.Microsecond, Burst: 4},
		"mail-server metadata: read-leaning, strongly skewed, bursty"},
	"exchange-1": {Params{ReadRatio: 0.75, ZipfS: 1.4, HotRegions: 16, RegionPages: 8, ReqPages: 2, MeanGap: 70 * sim.Microsecond, Burst: 4},
		"the paper's Fig 3 example: reads concentrate on few channels"},
	"rocksdb-0": {Params{ReadRatio: 0.50, ZipfS: 1.2, HotRegions: 64, RegionPages: 16, ReqPages: 4, MeanGap: 90 * sim.Microsecond, Burst: 8},
		"LSM store: compaction write bursts + hot random reads (Fig 20a)"},
	"rocksdb-1": {Params{ReadRatio: 0.35, ZipfS: 1.1, HotRegions: 64, RegionPages: 24, ReqPages: 4, MeanGap: 80 * sim.Microsecond, Burst: 8},
		"write-heavier LSM phase, high GC pressure"},
	"web-0": {Params{ReadRatio: 0.90, ZipfS: 1.25, HotRegions: 48, RegionPages: 12, ReqPages: 2, MeanGap: 50 * sim.Microsecond, Burst: 2},
		"web serving: read-dominated with moderate skew"},
	"mail-0": {Params{ReadRatio: 0.25, ZipfS: 0, HotRegions: 64, ReqPages: 2, MeanGap: 70 * sim.Microsecond, Burst: 4},
		"mail delivery: write-dominated, near-uniform"},
	"update-0": {Params{ReadRatio: 0.10, ZipfS: 0, HotRegions: 64, ReqPages: 4, MeanGap: 100 * sim.Microsecond, Burst: 8},
		"bulk update stream: almost pure sequentialish writes"},
	"search-0": {Params{ReadRatio: 0.95, ZipfS: 1.5, HotRegions: 8, RegionPages: 8, ReqPages: 2, MeanGap: 40 * sim.Microsecond, Burst: 2},
		"index serving: extreme read skew, worst-case channel imbalance"},
}

// Names returns the available preset names in sorted order.
func Names() []string {
	out := make([]string, 0, len(presets))
	for name := range presets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line rationale of a preset.
func Describe(name string) (string, error) {
	p, ok := presets[name]
	if !ok {
		return "", fmt.Errorf("workload: unknown preset %q", name)
	}
	return p.why, nil
}

// Named generates a preset trace over the footprint. An unknown preset, a
// non-positive n or a footprint smaller than one request is an error.
func Named(name string, footprint int64, n int, seed int64) (Trace, error) {
	p, ok := presets[name]
	if !ok {
		return Trace{}, fmt.Errorf("workload: unknown preset %q (have %v)", name, Names())
	}
	if err := checkSize(p.params, footprint, n); err != nil {
		return Trace{}, err
	}
	return Generate(name, p.params, footprint, n, seed), nil
}

// WriteCSV stores a trace as "arrival_ps,op,lpn,pages" rows.
func WriteCSV(w io.Writer, t Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"arrival_ps", "op", "lpn", "pages"}); err != nil {
		return err
	}
	for _, r := range t.Requests {
		op := "W"
		if r.Kind == stats.Read {
			op = "R"
		}
		if err := cw.Write([]string{
			strconv.FormatInt(int64(r.Arrival), 10),
			op,
			strconv.FormatInt(r.LPN, 10),
			strconv.Itoa(r.Pages),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// MaxCSVReqPages bounds the per-request page count ReadCSV accepts. A
// larger value is always a conversion bug (the biggest real-trace
// request is a few MB), and the bound keeps lpn+pages arithmetic far
// from integer overflow.
const MaxCSVReqPages = 1 << 20

// ReadCSV loads a trace written by WriteCSV (or hand-converted from a
// real trace). The input is untrusted: every malformed shape — short or
// long rows, non-numeric fields, non-positive page counts, negative
// arrivals or LPNs, and out-of-order arrivals — returns an error rather
// than producing a trace that would later crash a replay.
func ReadCSV(r io.Reader, name string) (Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // row widths are checked per row below
	rows, err := cr.ReadAll()
	if err != nil {
		return Trace{}, fmt.Errorf("workload: bad trace CSV: %w", err)
	}
	if len(rows) == 0 {
		return Trace{}, fmt.Errorf("workload: empty trace")
	}
	start := 0
	if len(rows[0]) > 0 && rows[0][0] == "arrival_ps" {
		start = 1
	}
	t := Trace{Name: name}
	prev := sim.Time(-1)
	for i, row := range rows[start:] {
		if len(row) != 4 {
			return Trace{}, fmt.Errorf("workload: row %d has %d fields, want 4", i, len(row))
		}
		at, err1 := strconv.ParseInt(row[0], 10, 64)
		lpn, err2 := strconv.ParseInt(row[2], 10, 64)
		pages, err3 := strconv.Atoi(row[3])
		if err1 != nil || err2 != nil || err3 != nil {
			return Trace{}, fmt.Errorf("workload: row %d unparseable", i)
		}
		if at < 0 {
			return Trace{}, fmt.Errorf("workload: row %d negative arrival %d", i, at)
		}
		if sim.Time(at) < prev {
			return Trace{}, fmt.Errorf("workload: row %d arrival %d before previous arrival %d — trace must be time-ordered", i, at, int64(prev))
		}
		prev = sim.Time(at)
		if lpn < 0 || lpn > math.MaxInt64-MaxCSVReqPages {
			return Trace{}, fmt.Errorf("workload: row %d lpn %d out of range", i, lpn)
		}
		if pages <= 0 || pages > MaxCSVReqPages {
			return Trace{}, fmt.Errorf("workload: row %d page count %d outside [1,%d]", i, pages, MaxCSVReqPages)
		}
		kind := stats.Write
		switch row[1] {
		case "R", "r":
			kind = stats.Read
		case "W", "w":
		default:
			return Trace{}, fmt.Errorf("workload: row %d bad op %q", i, row[1])
		}
		req := host.Request{Arrival: sim.Time(at), Kind: kind, LPN: lpn, Pages: pages}
		if end := lpn + int64(pages); end > t.Footprint {
			t.Footprint = end
		}
		t.Requests = append(t.Requests, req)
	}
	return t, nil
}

// Mix summarizes a trace's composition for reports.
func (t Trace) Mix() (reads, writes int, readFrac float64) {
	for _, r := range t.Requests {
		if r.Kind == stats.Read {
			reads++
		} else {
			writes++
		}
	}
	total := reads + writes
	if total == 0 {
		return 0, 0, 0
	}
	return reads, writes, float64(reads) / float64(total)
}

// Duration returns the arrival span of the trace.
func (t Trace) Duration() sim.Time {
	if len(t.Requests) == 0 {
		return 0
	}
	return t.Requests[len(t.Requests)-1].Arrival - t.Requests[0].Arrival
}
