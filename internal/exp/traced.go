package exp

import (
	"io"

	"repro/internal/ftl"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TracedRun replays one named workload trace on a GC-configured device
// with the tracing subsystem enabled, then writes the Chrome trace-event
// JSON to traceW and the machine-readable run summary to summaryW (either
// may be nil to skip that export). It returns the host metrics so callers
// can cross-check the summary. This is the engine behind the -trace /
// -metrics-json flags of cmd/experiments and the CI trace smoke step.
func TracedRun(opt Options, arch ssd.Arch, mode ftl.GCMode, traceName string, traceW, summaryW io.Writer) (*stats.IOMetrics, error) {
	opt = opt.withDefaults()
	if _, err := workload.Describe(traceName); err != nil {
		return nil, err
	}
	cfg := gcCfg(opt)
	cfg.FTL.GCMode = mode
	cfg.FTL.Policy = ftl.PCWD
	cfg.Trace = &trace.Config{}
	cfg.Telemetry = &telemetry.Config{}
	var err error
	m := onDevice(opt, arch, cfg, func(s *ssd.SSD) *stats.IOMetrics {
		replay(s, opt, true, traceName)
		if traceW != nil {
			s.InjectTelemetryCounters()
			if err = s.Tracer.ExportChrome(traceW); err != nil {
				return nil
			}
		}
		if summaryW != nil {
			if err = s.WriteSummaryJSON(summaryW); err != nil {
				return nil
			}
		}
		return s.Metrics().Clone()
	})
	return m, err
}
