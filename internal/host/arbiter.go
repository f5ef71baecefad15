package host

import "fmt"

// QueueState is the arbiter's read-only view of one submission queue at
// a grant decision. Len counts queued commands, HeadPages is the size of
// the command at the head (the service cost a deficit arbiter charges),
// and Weight/Burst come from the queue's TenantConfig.
type QueueState struct {
	Len       int
	HeadPages int
	Weight    int
	Burst     int
}

// Arbiter picks which submission queue the front end serves next. Pick
// is called once per grant with one QueueState per queue, at least one
// of which is non-empty, and must return the index of a non-empty
// queue. Implementations are stateful (rotation pointers, deficit
// counters) and must be deterministic: the same call sequence yields
// the same grants. An arbiter instance belongs to exactly one Frontend.
type Arbiter interface {
	Pick(qs []QueueState) int
}

// Arbiter names accepted by NewArbiter and FrontendConfig.Arbiter.
const (
	ArbRR   = "rr"   // round-robin, one grant per non-empty queue
	ArbWRR  = "wrr"  // weighted round-robin, Weight consecutive grants
	ArbDWRR = "dwrr" // deficit-weighted round-robin, page-cost based
)

// ArbiterNames lists the built-in arbiters in documentation order.
func ArbiterNames() []string { return []string{ArbRR, ArbWRR, ArbDWRR} }

// NewArbiter builds a fresh arbiter by name; the empty name selects
// round-robin.
func NewArbiter(name string) (Arbiter, error) {
	switch name {
	case "", ArbRR:
		return &roundRobin{}, nil
	case ArbWRR:
		return &weightedRR{}, nil
	case ArbDWRR:
		return &deficitWRR{fresh: true}, nil
	default:
		return nil, fmt.Errorf("host: unknown arbiter %q (have %v)", name, ArbiterNames())
	}
}

// weightOf clamps a queue weight to at least 1 so a zero-valued config
// still makes progress.
func weightOf(q QueueState) int {
	if q.Weight <= 0 {
		return 1
	}
	return q.Weight
}

// costOf is the service cost of a queue's head command in pages.
func costOf(q QueueState) int {
	if q.HeadPages <= 0 {
		return 1
	}
	return q.HeadPages
}

// roundRobin grants one command per non-empty queue in rotation: the
// classic NVMe round-robin arbitration. Every non-empty queue is served
// within len(qs) grants.
type roundRobin struct{ last int }

func (r *roundRobin) Pick(qs []QueueState) int {
	n := len(qs)
	for i := 1; i <= n; i++ {
		idx := (r.last + i) % n
		if qs[idx].Len > 0 {
			r.last = idx
			return idx
		}
	}
	panic("host: arbiter Pick called with all queues empty")
}

// weightedRR serves up to Weight consecutive commands from the current
// queue before rotating: NVMe weighted round-robin with integer
// weights. Under saturation each queue's command share is proportional
// to its weight, and every non-empty queue is served within
// sum(weights) grants.
type weightedRR struct {
	cur  int
	used int
}

func (w *weightedRR) Pick(qs []QueueState) int {
	n := len(qs)
	for scanned := 0; scanned <= n; {
		q := qs[w.cur%n]
		if q.Len == 0 || w.used >= weightOf(q) {
			w.cur = (w.cur + 1) % n
			w.used = 0
			scanned++
			continue
		}
		w.used++
		return w.cur
	}
	panic("host: arbiter Pick called with all queues empty")
}

// DWRRQuantumPages is the deficit replenished per weight unit each time
// the deficit arbiter visits a queue. It is sized to the largest common
// request (16 pages = 256 KB at 16 KB pages) so a weight-1 queue serves
// a typical head command on its first visit.
const DWRRQuantumPages = 16

// deficitWRR is deficit-weighted round-robin: each visit replenishes a
// queue's deficit by Weight x DWRRQuantumPages and the queue is served
// while its deficit covers the head command's page cost, so service is
// weight-proportional in *pages* rather than commands — a queue sending
// large writes cannot crowd out one sending small reads of equal
// weight. Burst, when positive, caps consecutive grants to one queue
// regardless of remaining deficit, bounding the latency a bursty tenant
// can impose on its neighbours.
type deficitWRR struct {
	cur     int
	deficit []int
	streak  int
	fresh   bool // replenish pending for the current queue
}

func (d *deficitWRR) advance(n int) {
	d.cur = (d.cur + 1) % n
	d.streak = 0
	d.fresh = true
}

func (d *deficitWRR) Pick(qs []QueueState) int {
	n := len(qs)
	for len(d.deficit) < n {
		d.deficit = append(d.deficit, 0)
	}
	any := false
	for _, q := range qs {
		if q.Len > 0 {
			any = true
			break
		}
	}
	if !any {
		panic("host: arbiter Pick called with all queues empty")
	}
	// An idle queue forfeits its deficit (standard DRR), so every
	// rotation either serves a command or strictly raises some non-empty
	// queue's deficit — the loop terminates within
	// ceil(maxCost/quantum) x n iterations.
	for {
		q := qs[d.cur]
		if q.Len == 0 {
			d.deficit[d.cur] = 0
			d.advance(n)
			continue
		}
		if d.fresh {
			d.deficit[d.cur] += weightOf(q) * DWRRQuantumPages
			d.fresh = false
		}
		if q.Burst > 0 && d.streak >= q.Burst {
			d.advance(n)
			continue
		}
		if cost := costOf(q); d.deficit[d.cur] >= cost {
			d.deficit[d.cur] -= cost
			d.streak++
			return d.cur
		}
		d.advance(n)
	}
}
