package main

import (
	"testing"

	"repro/internal/report"
	"repro/internal/sim"
)

// BenchmarkQuickSuite runs the whole `experiments -quick` default suite
// once per op, output discarded. ns/op is the suite's wall time on the
// machine at hand, recorded only; events/op counts the events it fires,
// the same on every machine and at every worker count. Run it at
// -benchtime=1x.
func BenchmarkQuickSuite(b *testing.B) {
	var fired int64
	for i := 0; i < b.N; i++ {
		before := sim.EventsFiredTotal()
		defaultSuite(options(true, 1, 0, false), func(*report.Table) {})
		fired += sim.EventsFiredTotal() - before
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}
