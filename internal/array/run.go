package array

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Result is one array run's outcome.
type Result struct {
	// Metrics holds host-visible array-request latencies and throughput.
	Metrics *stats.IOMetrics
	// RAS is the router's reliability ledger.
	RAS *stats.ArrayRAS
	// RebuildTime is from first kill detection to the last rebuild spare
	// write's simulated completion; zero when no rebuild ran.
	RebuildTime sim.Time
	// SimTime is the latest device drain time.
	SimTime sim.Time
	// Incomplete counts array requests whose shard operations never all
	// completed — must stay zero on a healthy run.
	Incomplete int
	// Violations aggregates array-level invariant breaches plus any
	// per-device checker failures (only populated with cfg.Device.Check).
	Violations []check.Violation
	// Devices exposes every member simulation for per-device digests
	// (GC counters, RAS, bus occupancy).
	Devices []*ssd.SSD
	// Telemetry is the array-level time-series summary, nil unless
	// cfg.Telemetry was set.
	Telemetry *telemetry.Summary
}

// Err returns an error when any invariant was violated or any request
// left incomplete.
func (r *Result) Err() error {
	if r.Incomplete > 0 {
		return fmt.Errorf("array: %d requests incomplete", r.Incomplete)
	}
	if len(r.Violations) > 0 {
		return fmt.Errorf("array: %d violation(s), first: %s", len(r.Violations), r.Violations[0])
	}
	return nil
}

// churnSeed seeds one member's churn, so groups don't churn in
// lockstep.
func churnSeed(cfg Config, dev int) int64 { return cfg.Seed + int64(dev)*1009 }

// deviceOut is what each parallel device job returns.
type deviceOut struct {
	s     *ssd.SSD
	times []sim.Time
	end   sim.Time
}

// Run plans the array, simulates every member device (fanning out over
// `parallel` workers — each device is a fully independent simulation),
// reassembles array-level latencies, and evaluates the array
// invariants. Results are byte-identical at any parallelism: all
// routing was decided in BuildPlan and reassembly is an arithmetic join
// over per-device completion times.
func Run(cfg Config, reqs []host.Request, parallel int) *Result {
	plan := BuildPlan(cfg, reqs)
	label := func(dev int) string {
		role := "coded"
		if dev >= cfg.Groups*cfg.Width() {
			role = "spare"
		}
		return fmt.Sprintf("%s dev%d %s/%d+%d", role, dev, cfg.Arch, cfg.Data, cfg.Parity)
	}
	outs := runner.MapLabeled(parallel, cfg.Devices(), label, func(dev int) deviceOut {
		s := ssd.New(cfg.Arch, cfg.Device)
		s.Precondition(cfg.ChurnFraction, churnSeed(cfg, dev))
		times := s.Host.MustReplay(plan.Device[dev])
		end := s.Engine.Run()
		return deviceOut{s: s, times: times, end: end}
	})

	res := &Result{
		Metrics: stats.NewIOMetrics(),
		RAS:     plan.RAS,
		Devices: make([]*ssd.SSD, len(outs)),
	}
	var ck *check.ArrayChecker
	if cfg.Device.Check != nil {
		ck = check.NewArrayChecker()
	}
	for dev, o := range outs {
		res.Devices[dev] = o.s
		if o.end > res.SimTime {
			res.SimTime = o.end
		}
	}

	// Array-level telemetry is fed from the same joined completion
	// times the metrics use, in plan order — deterministic regardless
	// of device parallelism.
	var col *telemetry.Collector
	if cfg.Telemetry != nil {
		col = telemetry.New()
	}

	// Reassemble: an array request completes when the last of its shard
	// operations does (never earlier than its issue floor), plus the
	// reconstruction tail and the fixed route overhead.
	for i, pr := range plan.reqs {
		complete := sim.Time(0)
		ok := true
		for _, pg := range pr.pages {
			pc := pg.floor
			for _, op := range pg.ops {
				at := outs[op.dev].times[op.idx]
				if at < 0 {
					ok = false
					break
				}
				if at > pc {
					pc = at
				}
			}
			if !ok {
				break
			}
			if pc+pg.tail > complete {
				complete = pc + pg.tail
			}
		}
		if !ok {
			res.Incomplete++
			continue
		}
		complete += RouteLatency
		res.Metrics.Record(pr.kind, pr.arrival, complete, pr.bytes)
		col.RecordCompletion(pr.kind, pr.arrival, complete, pr.bytes)
		ck.Ack(int64(i), complete)
	}

	// Rebuild time: detection to the last rebuild write's completion.
	for _, op := range plan.rebuildOps {
		if at := outs[op.dev].times[op.idx]; at >= 0 {
			col.RebuildPage(at)
			if at-plan.detectAt > res.RebuildTime {
				res.RebuildTime = at - plan.detectAt
			}
		}
	}
	if col.Enabled() {
		if len(plan.rebuildOps) > 0 {
			col.AddMark("rebuild-detect", plan.detectAt)
			col.AddMark("rebuild-complete", plan.detectAt+res.RebuildTime)
		}
		res.Telemetry = col.Summary(res.SimTime)
	}

	if ck != nil {
		res.Violations = verify(cfg, plan, outs, ck, res.SimTime)
	}
	return res
}

// verify evaluates the array invariants against the drained devices.
func verify(cfg Config, plan *Plan, outs []deviceOut, ck *check.ArrayChecker, at sim.Time) []check.Violation {
	var vs []check.Violation

	// Per-device invariants first: each member's own checker already
	// audited bus legality, page conservation, and drain cleanliness.
	for dev, o := range outs {
		if err := o.s.VerifyInvariants(); err != nil {
			vs = append(vs, check.Violation{Time: at, Rule: fmt.Sprintf("device-%d", dev), Detail: err.Error()})
		}
	}

	// Expected shard content: churn then host writes, matching the
	// host's own version accounting (first host write is version 1, the
	// same token churn installs).
	churned := make([]map[int64]bool, cfg.Devices())
	for dev := range churned {
		churned[dev] = make(map[int64]bool)
		for _, lpn := range cfg.Device.ChurnLPNs(cfg.ChurnFraction, churnSeed(cfg, dev)) {
			churned[dev][lpn] = true
		}
	}
	expected := func(dev int, lpn int64) flash.Token {
		if n := plan.writes[dev][lpn]; n > 0 {
			return ftl.TokenFor(lpn, n)
		}
		if churned[dev][lpn] {
			return ftl.TokenFor(lpn, 1)
		}
		return ftl.TokenFor(lpn, 0)
	}
	// shardOK: the lane's shard is readable and current — on its home
	// device when that device survived, or on the fresh spare copy when
	// it did not.
	horizon := at
	shardOK := func(group int) func(stripe int64, lane int) bool {
		return func(stripe int64, lane int) bool {
			s := cfg.shardAt(group, stripe, lane)
			dev := s.dev
			if plan.sched.DeadAt(dev, horizon) {
				spare, fresh := plan.spareFreshAt(dev, s.lpn, horizon)
				if !fresh {
					return false
				}
				dev = spare
			}
			got, ok := outs[dev].s.FTL.Content(s.lpn)
			return ok && got == expected(dev, s.lpn)
		}
	}
	for g := 0; g < cfg.Groups; g++ {
		ck.CheckStripeConservation(cfg.StripesPerGroup(), cfg.Width(), cfg.Data, shardOK(g), at)
	}

	// Rebuild completeness: with the scheduler on, every stripe of a
	// spared kill must be re-protected by drain.
	if cfg.RebuildPagesPerSec > 0 {
		for _, k := range plan.sched.Kills() {
			spare, ok := plan.spareOf[k.Device]
			if !ok {
				continue
			}
			ck.CheckRebuildComplete(cfg.StripesPerGroup(), func(stripe int64) bool {
				_, fresh := plan.fresh[spare][stripe]
				return fresh
			}, at)
		}
	}

	ck.CheckAllAcked(int64(len(plan.reqs)), at)
	plan.RAS.DoubleAcks = ck.DoubleAcks()
	return append(vs, ck.Violations()...)
}
