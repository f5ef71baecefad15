package array

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/stats"
)

// opRef names one operation inside one device's planned trace.
type opRef struct {
	dev, idx int
}

// planPage is the shard fan-out of one page of one array request: the
// device operations whose completions it joins on, the earliest time it
// can complete (its latest issue time — retries and deferrals push it
// out), and the latency added after the join (reconstruction decode).
type planPage struct {
	ops   []opRef
	floor sim.Time
	tail  sim.Time
}

// planReq is one array request after routing.
type planReq struct {
	arrival sim.Time
	kind    stats.IOKind
	bytes   int64
	pages   []planPage
}

// Plan is the router's complete, pre-computed account of one array run:
// per-device open-loop traces, the join structure that reassembles
// array-level latencies, the rebuild schedule, and the RAS counters the
// routing decisions produced. Everything here derives from the
// configuration, failure schedule, and foreground trace alone — never
// from simulated device timing — which is what lets the devices
// simulate independently in parallel with byte-identical results.
type Plan struct {
	cfg   Config
	sched *fault.DeviceSchedule

	// Device holds the per-device open-loop traces Run replays.
	Device [][]host.Request
	reqs   []planReq

	// RAS counts every routing decision; Run adds nothing to it.
	RAS *stats.ArrayRAS

	// spareOf maps a killed device to its assigned spare, in kill order.
	spareOf map[int]int
	// fresh[spare][lpn] is the earliest time the spare holds a current
	// copy of that shard — from a redirected foreground write or a
	// rebuild job — after which reads of the dead shard go straight to
	// the spare.
	fresh map[int]map[int64]sim.Time
	// writes[dev][lpn] counts host writes routed to the device, the
	// version record the content invariants check against.
	writes []map[int64]int64
	// rebuildOps are the spare writes the rebuild scheduler issued;
	// their simulated completions bound the rebuild time.
	rebuildOps []opRef
	// detectAt is the earliest kill detection, the rebuild clock's zero.
	detectAt sim.Time
}

// ladderWait is the full retry ladder: attempt i waits RetryBackoff<<(i-1).
const ladderWait = RetryBackoff * (1<<RetryMax - 1)

// BuildPlan routes a foreground trace of array-level requests. Requests
// must use array LPNs in [0, cfg.LogicalPages()); multi-page requests
// are expanded page by page, each page joining on its own shard set. A
// cfg that fails Validate panics with its error.
func BuildPlan(cfg Config, reqs []host.Request) *Plan {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Plan{
		cfg:     cfg,
		sched:   fault.NewDeviceSchedule(cfg.Failures),
		Device:  make([][]host.Request, cfg.Devices()),
		RAS:     stats.NewArrayRAS(),
		spareOf: make(map[int]int),
		fresh:   make(map[int]map[int64]sim.Time),
		writes:  make([]map[int64]int64, cfg.Devices()),
	}
	for i := range p.writes {
		p.writes[i] = make(map[int64]int64)
	}

	// Spare assignment: kills claim spares in (time, device) order.
	kills := p.sched.Kills()
	p.RAS.DeviceKills = int64(len(kills))
	p.RAS.TransientOutages = int64(p.sched.Outages())
	for i, k := range kills {
		if i < cfg.Spares {
			p.spareOf[k.Device] = cfg.Groups*cfg.Width() + i
		}
	}
	p.detectAt = -1
	for _, k := range kills {
		if d := k.At + DetectLatency; p.detectAt < 0 || d < p.detectAt {
			p.detectAt = d
		}
	}

	// Pass A: the redirect map. Scan foreground writes for shards whose
	// home device is dead at issue time and record when their redirected
	// copies land on the spare, without counting or emitting anything —
	// the rebuild scheduler needs this to skip stripes a foreground
	// write already re-protected.
	redirectAt := make(map[int]map[int64]sim.Time)
	p.eachShardWrite(reqs, func(s shard, at sim.Time) {
		t0 := p.deferPast(s.dev, at)
		if !p.sched.DeadAt(s.dev, t0) {
			return
		}
		spare, ok := p.spareOf[s.dev]
		if !ok {
			return
		}
		m := redirectAt[spare]
		if m == nil {
			m = make(map[int64]sim.Time)
			redirectAt[spare] = m
		}
		if prev, ok := m[s.lpn]; !ok || t0 < prev {
			m[s.lpn] = t0
		}
	})

	// Pass B: the rebuild schedule. One open-loop job per lost stripe,
	// throttled to RebuildPagesPerSec, starting at detection: m survivor
	// reads plus one spare write, unless a redirected write already
	// re-protected the stripe before the job's slot ("skip-if-fresh").
	if cfg.RebuildPagesPerSec > 0 {
		interval := sim.Second / sim.Time(cfg.RebuildPagesPerSec)
		if interval < 1 {
			interval = 1
		}
		for _, k := range kills {
			spare, ok := p.spareOf[k.Device]
			if !ok {
				continue
			}
			g := k.Device / cfg.Width()
			start := k.At + DetectLatency
			for s := int64(0); s < cfg.StripesPerGroup(); s++ {
				at := start + sim.Time(s)*interval
				if r, ok := redirectAt[spare][s]; ok && r <= at {
					p.RAS.RebuildSkipped++
					p.freshen(spare, s, r)
					continue
				}
				lost := cfg.laneOf(k.Device%cfg.Width(), s)
				ops, full := p.survivorReads(g, s, lost, at)
				if !full {
					// Fewer than m live shards: the stripe is not
					// rebuildable; the conservation check will flag it.
					continue
				}
				p.RAS.RebuildReads += int64(len(ops))
				w := p.push(spare, host.Request{Arrival: at, Kind: stats.Write, LPN: s, Pages: 1})
				p.writes[spare][s]++
				p.rebuildOps = append(p.rebuildOps, w)
				p.RAS.RebuildPages++
				p.freshen(spare, s, at)
			}
		}
	}

	// Redirected writes also freshen the spare for the read path.
	for spare, m := range redirectAt {
		for lpn, at := range m {
			p.freshen(spare, lpn, at)
		}
	}

	// Pass C: route the foreground trace.
	for _, r := range reqs {
		pr := planReq{
			arrival: r.Arrival,
			kind:    r.Kind,
			bytes:   int64(r.Pages) * int64(cfg.Device.Geometry.PageSize),
		}
		for pg := 0; pg < r.Pages; pg++ {
			a := (r.LPN + int64(pg)) % cfg.LogicalPages()
			g, t, lane := cfg.locate(a)
			if r.Kind == stats.Read {
				pr.pages = append(pr.pages, p.routeRead(g, t, lane, r.Arrival))
			} else {
				pr.pages = append(pr.pages, p.routeWrite(g, t, lane, r.Arrival))
			}
		}
		p.reqs = append(p.reqs, pr)
	}
	return p
}

// push appends one operation to a device trace and returns its handle.
func (p *Plan) push(dev int, r host.Request) opRef {
	p.Device[dev] = append(p.Device[dev], r)
	return opRef{dev, len(p.Device[dev]) - 1}
}

func (p *Plan) freshen(spare int, lpn int64, at sim.Time) {
	m := p.fresh[spare]
	if m == nil {
		m = make(map[int64]sim.Time)
		p.fresh[spare] = m
	}
	if prev, ok := m[lpn]; !ok || at < prev {
		m[lpn] = at
	}
}

// spareFreshAt reports whether dev's shard lpn has a current copy on a
// spare by time t, and which spare.
func (p *Plan) spareFreshAt(dev int, lpn int64, t sim.Time) (int, bool) {
	spare, ok := p.spareOf[dev]
	if !ok {
		return 0, false
	}
	at, ok := p.fresh[spare][lpn]
	return spare, ok && at <= t
}

// deferPast pushes a write's issue time past any transient outage the
// device is inside at time t.
func (p *Plan) deferPast(dev int, t sim.Time) sim.Time {
	if until, out := p.sched.UnavailableAt(dev, t); out {
		return until
	}
	return t
}

// eachShardWrite visits every shard-level write the foreground trace
// implies — the data lane plus every parity lane of each written page.
func (p *Plan) eachShardWrite(reqs []host.Request, visit func(s shard, at sim.Time)) {
	cfg := p.cfg
	for _, r := range reqs {
		if r.Kind != stats.Write {
			continue
		}
		for pg := 0; pg < r.Pages; pg++ {
			a := (r.LPN + int64(pg)) % cfg.LogicalPages()
			g, t, lane := cfg.locate(a)
			visit(cfg.shardAt(g, t, lane), r.Arrival)
			for par := 0; par < cfg.Parity; par++ {
				visit(cfg.shardAt(g, t, cfg.Data+par), r.Arrival)
			}
		}
	}
}

// routeWrite routes one page write: the data shard plus every parity
// shard. A shard inside a transient window is deferred to the window's
// end; a shard on a dead device redirects to the mapped spare or, with
// no spare, is lost (the stripe stays readable via the survivors until
// more than k shards die).
func (p *Plan) routeWrite(g int, t int64, lane int, at sim.Time) planPage {
	cfg := p.cfg
	page := planPage{floor: at}
	lanes := make([]int, 0, 1+cfg.Parity)
	lanes = append(lanes, lane)
	for par := 0; par < cfg.Parity; par++ {
		lanes = append(lanes, cfg.Data+par)
	}
	for _, ln := range lanes {
		s := cfg.shardAt(g, t, ln)
		t0 := at
		if until, out := p.sched.UnavailableAt(s.dev, t0); out {
			p.RAS.DeferredWrites++
			t0 = until
		}
		target := s.dev
		if p.sched.DeadAt(s.dev, t0) {
			spare, ok := p.spareOf[s.dev]
			if !ok {
				p.RAS.LostWrites++
				continue
			}
			p.RAS.RedirectedWrites++
			target = spare
		}
		page.ops = append(page.ops, p.push(target, host.Request{Arrival: t0, Kind: stats.Write, LPN: s.lpn, Pages: 1}))
		p.writes[target][s.lpn]++
		if t0 > page.floor {
			page.floor = t0
		}
	}
	return page
}

// routeRead routes one page read against its data shard. The decision
// ladder: a rebuilt/redirected spare copy serves directly; a detected
// dead device reconstructs immediately; an undetected one burns the
// full retry ladder first; a transient outage retries with exponential
// backoff until the window ends or the ladder exhausts.
func (p *Plan) routeRead(g int, t int64, lane int, at sim.Time) planPage {
	cfg := p.cfg
	s := cfg.shardAt(g, t, lane)

	if p.sched.DeadAt(s.dev, at) {
		if spare, fresh := p.spareFreshAt(s.dev, s.lpn, at); fresh {
			p.RAS.SpareReads++
			op := p.push(spare, host.Request{Arrival: at, Kind: stats.Read, LPN: s.lpn, Pages: 1})
			return planPage{ops: []opRef{op}, floor: at}
		}
		killAt, _ := p.sched.KilledAt(s.dev)
		if at >= killAt+DetectLatency {
			return p.reconstructPage(g, t, lane, at)
		}
		// Undetected: every retry times out, then reconstruction.
		p.RAS.RouterRetries += RetryMax
		p.RAS.RetryExhausted++
		return p.reconstructPage(g, t, lane, at+ladderWait)
	}

	if until, out := p.sched.UnavailableAt(s.dev, at); out {
		var waited sim.Time
		for i := 0; i < RetryMax; i++ {
			waited += RetryBackoff << uint(i)
			p.RAS.RouterRetries++
			if at+waited >= until {
				op := p.push(s.dev, host.Request{Arrival: at + waited, Kind: stats.Read, LPN: s.lpn, Pages: 1})
				return planPage{ops: []opRef{op}, floor: at + waited}
			}
		}
		p.RAS.RetryExhausted++
		return p.reconstructPage(g, t, lane, at+waited)
	}

	op := p.push(s.dev, host.Request{Arrival: at, Kind: stats.Read, LPN: s.lpn, Pages: 1})
	return planPage{ops: []opRef{op}, floor: at}
}

// survivorReads issues reads of m surviving shards of stripe t (group
// g), excluding the lost lane, at time rt. Survivors inside a transient
// window are skipped rather than awaited; a dead survivor serves from
// its spare when the spare copy is fresh. Returns full=false when fewer
// than m shards are reachable.
func (p *Plan) survivorReads(g int, t int64, lost int, rt sim.Time) (ops []opRef, full bool) {
	cfg := p.cfg
	for ln := 0; ln < cfg.Width() && len(ops) < cfg.Data; ln++ {
		if ln == lost {
			continue
		}
		s := cfg.shardAt(g, t, ln)
		if p.sched.AvailableAt(s.dev, rt) {
			ops = append(ops, p.push(s.dev, host.Request{Arrival: rt, Kind: stats.Read, LPN: s.lpn, Pages: 1}))
			continue
		}
		if p.sched.DeadAt(s.dev, rt) {
			if spare, fresh := p.spareFreshAt(s.dev, s.lpn, rt); fresh {
				ops = append(ops, p.push(spare, host.Request{Arrival: rt, Kind: stats.Read, LPN: s.lpn, Pages: 1}))
			}
		}
	}
	return ops, len(ops) == cfg.Data
}

// reconstructPage degrades one page read into m surviving-shard reads
// joined by the decode latency. Fewer than m reachable shards is data
// loss: the page is counted failed and completes (as an error the host
// would see) after the route overhead alone.
func (p *Plan) reconstructPage(g int, t int64, lane int, rt sim.Time) planPage {
	ops, full := p.survivorReads(g, t, lane, rt)
	if !full {
		// The partial survivor reads stay in the plan — the router did
		// issue them before discovering the stripe is unrecoverable.
		p.RAS.ReconstructionReads += int64(len(ops))
		p.RAS.FailedReads++
		return planPage{ops: ops, floor: rt}
	}
	p.RAS.DegradedReads++
	p.RAS.ReconstructionReads += int64(len(ops))
	return planPage{ops: ops, floor: rt, tail: ReconstructLatency}
}

// DeviceOps returns the total operation count across device traces —
// the unit the router-throughput benchmark reports.
func (p *Plan) DeviceOps() int {
	n := 0
	for _, t := range p.Device {
		n += len(t)
	}
	return n
}

// String summarizes the plan for logs.
func (p *Plan) String() string {
	return fmt.Sprintf("array plan: %d reqs -> %d device ops on %d devices, %s",
		len(p.reqs), p.DeviceOps(), len(p.Device), p.RAS)
}
