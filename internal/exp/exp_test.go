package exp

import (
	"reflect"
	"testing"

	"repro/internal/ssd"
)

func TestFig1Trend(t *testing.T) {
	chip, busTrend := Fig1()
	if len(chip) < 8 || len(busTrend) < 6 {
		t.Fatal("trend series too short")
	}
	// Chip bandwidth must grow roughly an order of magnitude per ~5 years
	// faster than the bus trend over the same span.
	chipGrowth := chip[len(chip)-1].MBps / chip[0].MBps
	busGrowth := busTrend[len(busTrend)-1].MBps / busTrend[0].MBps
	if chipGrowth < 10 {
		t.Fatalf("chip bandwidth growth %.1fx too small", chipGrowth)
	}
	if busGrowth > chipGrowth {
		t.Fatal("bus grew faster than chips — motivation inverted")
	}
}

func TestFig6Timing(t *testing.T) {
	res := Fig6(ssd.DefaultConfig())
	if len(res.Conventional) != 3 || len(res.Packetized) != 3 {
		t.Fatal("phase counts wrong")
	}
	if res.PktTotal >= res.ConvTotal {
		t.Fatalf("packetized read %v not faster than conventional %v", res.PktTotal, res.ConvTotal)
	}
	// The saving comes from the data phase: ~2x on the readout.
	ratio := float64(res.Conventional[2].Dur) / float64(res.Packetized[2].Dur)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("readout phase ratio %.2f, want ~2", ratio)
	}
}

func TestFig8Overhead(t *testing.T) {
	res := Fig8()
	if res.ControlHeaderOverhead != 0.25 || res.DataHeaderOverhead != 0.5 {
		t.Fatal("header overheads do not match the paper")
	}
	if res.ControlPacketFlits != 8 {
		t.Fatalf("control packet = %d flits", res.ControlPacketFlits)
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Overhead > 0.001 {
		t.Fatalf("64KB payload overhead %.5f not negligible", last.Overhead)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Overhead >= res.Rows[i-1].Overhead {
			t.Fatal("overhead not decreasing with payload size")
		}
	}
}

func TestTableIAndIII(t *testing.T) {
	rows := TableI()
	if len(rows) != 11 {
		t.Fatalf("Table I has %d rows, want 11", len(rows))
	}
	pins := 0
	for _, r := range rows {
		pins += r.Pins
	}
	if pins != 18 {
		t.Fatalf("Table I pin total = %d, want 18", pins)
	}
	if len(TableIII()) != 6 {
		t.Fatal("Table III must list 6 architectures")
	}
}

func TestFig3Imbalance(t *testing.T) {
	res := Fig3(Quick())
	if len(res.ReadRows) != 8 || len(res.WriteRows) != 8 {
		t.Fatalf("expected 8 channel rows, got %d/%d", len(res.ReadRows), len(res.WriteRows))
	}
	// The paper's point: reads are imbalanced, writes are balanced.
	if res.ReadImbalance <= res.WriteImbalance {
		t.Fatalf("read imbalance %.2f not above write imbalance %.2f",
			res.ReadImbalance, res.WriteImbalance)
	}
}

// Seed 0 is a seed like any other, not a request for a default: a
// runner at seed 0 and at seed 1 replays different traces.
func TestSeedZeroIsASeed(t *testing.T) {
	zero, one := Quick(), Quick()
	zero.Seed, one.Seed = 0, 1
	if reflect.DeepEqual(Fig3(zero).ReadRows, Fig3(one).ReadRows) {
		t.Fatal("Fig 3 at seed 0 reproduces seed 1")
	}
}

func TestFig4BandwidthSweep(t *testing.T) {
	res := Fig4(Quick())
	if len(res) == 0 {
		t.Fatal("no rows")
	}
	var sum float64
	for _, row := range res {
		if row.Speedup[1.0] != 1.0 {
			t.Fatalf("%s: self speedup %.2f != 1", row.Trace, row.Speedup[1.0])
		}
		if row.Speedup[2.0] < 1.0 {
			t.Fatalf("%s: 2x bandwidth slowed things down (%.2f)", row.Trace, row.Speedup[2.0])
		}
		sum += row.Speedup[2.0]
	}
	mean := sum / float64(len(res))
	// The paper reports +85% on average at 2x; accept a broad band around
	// a meaningful gain.
	if mean < 1.2 {
		t.Fatalf("mean 2x speedup %.2f too small — channel not the bottleneck in model", mean)
	}
}

func TestFig14Ordering(t *testing.T) {
	rows := Fig14(Quick())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	mean := MeanImprovement(rows)
	t.Logf("mean improvement: base=%.2f pin=%.2f free=%.2f pssd=%.2f pn=%.2f split=%.2f",
		mean[ssd.ArchBase], mean[ssd.ArchNoSSDPin], mean[ssd.ArchNoSSDFree],
		mean[ssd.ArchPSSD], mean[ssd.ArchPnSSD], mean[ssd.ArchPnSSDSplit])
	// Headline orderings of Figs 14-15.
	if !(mean[ssd.ArchPSSD] > 0.2) {
		t.Fatalf("pSSD improvement %.2f too small", mean[ssd.ArchPSSD])
	}
	if !(mean[ssd.ArchPnSSDSplit] > mean[ssd.ArchPnSSD]) {
		t.Fatal("split does not beat plain pnSSD")
	}
	if !(mean[ssd.ArchNoSSDPin] < 0) {
		t.Fatal("pin-constrained NoSSD should degrade performance")
	}
	if !(mean[ssd.ArchPnSSDSplit] > mean[ssd.ArchNoSSDFree]) {
		t.Fatal("pnSSD(+split) should beat unconstrained NoSSD")
	}
	// Fig 15: throughput ordering mirrors latency.
	for _, row := range rows {
		if row.KIOPS[ssd.ArchPnSSDSplit] < row.KIOPS[ssd.ArchNoSSDPin] {
			t.Fatalf("%s: split KIOPS below NoSSD(pin)", row.Trace)
		}
	}
}

func TestFig16PCWDShape(t *testing.T) {
	opt := Quick()
	rows := Fig16(opt)
	// 4 patterns x 6 archs
	if len(rows) != 24 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if len(row.Points) != 7 {
			t.Fatalf("%v/%v: %d points", row.Pattern, row.Arch, len(row.Points))
		}
		// Latency must not decrease as outstanding I/O grows (queueing).
		for i := 1; i < len(row.Points); i++ {
			if row.Points[i].Latency < row.Points[i-1].Latency/2 {
				t.Fatalf("%v/%v: latency collapsed with more load", row.Pattern, row.Arch)
			}
		}
	}
}

func TestFig17PWCDSplitWins(t *testing.T) {
	opt := Quick()
	rows := Fig17(opt)
	// Under PWCD imbalance at high load, pnSSD(+split) must beat baseSSD
	// on random reads.
	find := func(arch ssd.Arch) Fig16Row {
		for _, r := range rows {
			if r.Arch == arch && r.Pattern.String() == "rand-read" {
				return r
			}
		}
		t.Fatal("row missing")
		return Fig16Row{}
	}
	split := find(ssd.ArchPnSSDSplit)
	base := find(ssd.ArchBase)
	lastSplit := split.Points[len(split.Points)-1].Latency
	lastBase := base.Points[len(base.Points)-1].Latency
	if lastSplit >= lastBase {
		t.Fatalf("PWCD rand-read @64: split %v not faster than base %v", lastSplit, lastBase)
	}
}

func TestFig18SpatialGCWins(t *testing.T) {
	rows := Fig18(Quick())
	if len(rows) != len(Fig18Configs) {
		t.Fatal("row count")
	}
	byLabel := map[string]Fig18Row{}
	for _, r := range rows {
		byLabel[r.Config.Label()] = r
	}
	pn := byLabel["pnSSD(SpGC)"]
	baseSp := byLabel["baseSSD(SpGC)"]
	t.Logf("read improvements: baseSp=%.2f pssd=%.2f pn=%.2f split=%.2f",
		baseSp.ReadImprovement, byLabel["pSSD(SpGC)"].ReadImprovement,
		pn.ReadImprovement, byLabel["pnSSD(+split)(SpGC)"].ReadImprovement)
	// pnSSD+SpGC must improve substantially over base+PaGC and beat
	// base+SpGC (shared channels limit the baseline's benefit).
	if pn.ReadImprovement < 0.5 {
		t.Fatalf("pnSSD SpGC read improvement %.2f too small", pn.ReadImprovement)
	}
	if pn.ReadImprovement <= baseSp.ReadImprovement {
		t.Fatal("pnSSD SpGC does not beat base SpGC on reads")
	}
	if pn.WriteImprovement <= 0 {
		t.Fatalf("pnSSD SpGC write improvement %.2f not positive", pn.WriteImprovement)
	}
}

func TestFig19SpGCBeatsBaseline(t *testing.T) {
	opt := Quick()
	opt.Traces = []string{"rocksdb-1"}
	rows := Fig19(opt)
	if len(rows) != 1 {
		t.Fatal("row count")
	}
	row := rows[0]
	pnSp := row.Improvement["pnSSD(+split)(SpGC)"]
	basePa := row.Improvement["baseSSD(PaGC)"]
	t.Logf("improvements: %v", row.Improvement)
	if basePa != 0 {
		t.Fatal("baseline improvement must be zero")
	}
	if pnSp <= 0.5 {
		t.Fatalf("pnSSD(+split) SpGC improvement %.2f too small vs base PaGC", pnSp)
	}
	// SpGC on pnSSD must beat PaGC on pnSSD (isolation matters, not just
	// bandwidth).
	if row.Improvement["pnSSD(+split)(SpGC)"] <= row.Improvement["pnSSD(+split)(PaGC)"] {
		t.Fatal("SpGC does not beat PaGC on the same fabric")
	}
}

func TestFig20aTail(t *testing.T) {
	opt := Quick()
	rows := Fig20a(opt)
	if len(rows) != len(Fig20aConfigs) {
		t.Fatal("row count")
	}
	base := rows[0]
	pn := rows[len(rows)-1]
	t.Logf("p99: base=%v pn=%v", base.P99, pn.P99)
	if pn.P99 >= base.P99 {
		t.Fatalf("pnSSD p99 %v not below base p99 %v", pn.P99, base.P99)
	}
	for _, r := range rows {
		if !(r.P50 <= r.P90 && r.P90 <= r.P99 && r.P99 <= r.P999 && r.P999 <= r.Max) {
			t.Fatalf("%s: percentiles not monotone", r.Config.Label())
		}
		if len(r.CDF) == 0 {
			t.Fatalf("%s: empty CDF", r.Config.Label())
		}
	}
}

func TestFig20bGCTime(t *testing.T) {
	opt := Quick()
	opt.Traces = []string{"rocksdb-1"}
	rows := Fig20b(opt)
	byLabel := map[string]Fig20bRow{}
	for _, r := range rows {
		byLabel[r.Config.Label()] = r
	}
	base := byLabel["baseSSD(PaGC)"]
	pn := byLabel["pnSSD(+split)(SpGC)"]
	if base.Rounds == 0 || pn.Rounds == 0 {
		t.Fatalf("no GC rounds recorded: base=%d pn=%d", base.Rounds, pn.Rounds)
	}
	t.Logf("GC time: base=%v pn=%v", base.MeanGCTime, pn.MeanGCTime)
	if pn.PagesCopied == 0 {
		t.Fatal("pnSSD copied nothing")
	}
}

func TestPnSSDLessPolicySensitiveThanBase(t *testing.T) {
	// Sec VII-B: "pnSSD performance is less sensitive to the access
	// pattern (or page allocation scheme) because of its ability to
	// load-balance." Compare each architecture's rand-read degradation
	// when switching the allocator from PCWD to the imbalanced PWCD.
	opt := Quick()
	latency := func(rows []Fig16Row, arch ssd.Arch) float64 {
		for _, r := range rows {
			if r.Arch == arch && r.Pattern.String() == "rand-read" {
				return float64(r.Points[len(r.Points)-1].Latency)
			}
		}
		t.Fatal("row missing")
		return 0
	}
	pcwd := Fig16(opt)
	pwcd := Fig17(opt)
	baseSens := latency(pwcd, ssd.ArchBase) / latency(pcwd, ssd.ArchBase)
	pnSens := latency(pwcd, ssd.ArchPnSSD) / latency(pcwd, ssd.ArchPnSSD)
	t.Logf("PWCD/PCWD rand-read@64: base %.3f, pnSSD %.3f", baseSens, pnSens)
	if pnSens > baseSens*1.15 {
		t.Fatalf("pnSSD more policy-sensitive (%.3f) than baseSSD (%.3f)", pnSens, baseSens)
	}
}
