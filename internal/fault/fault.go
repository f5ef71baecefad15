// Package fault is the deterministic, seed-driven fault-injection
// subsystem. Every layer of the simulator (flash chips, the FTL, the
// interconnect fabrics) draws fault outcomes from one shared Injector;
// because draws are hashes of (seed, fault class, draw counter) and the
// event engine itself is deterministic, two runs with the same seed and
// the same configuration inject byte-identical fault sequences — the
// property the RAS determinism tests assert.
//
// The injector is nil-safe: every method on a nil *Injector reports "no
// fault", so un-faulted builds pay a single nil check per potential
// fault site and need no conditional wiring.
package fault

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Class identifies one fault class. Each class has its own rate, quota,
// and draw counter so enabling one class never perturbs the draw
// sequence of another.
type Class int

// Fault classes.
const (
	// ReadECC: a page sense fails the on-chip ECC check. Recovered by the
	// chip's read-retry ladder, escalating to controller strong ECC.
	ReadECC Class = iota
	// OnDieECC: the weak on-die detector flags a flash-to-flash copy page
	// (Sec VIII hybrid ECC); the copy relays through the controller LDPC.
	OnDieECC
	// ProgramFail: a program operation fails its status check. The FTL
	// retires the block and remaps the in-flight write.
	ProgramFail
	// EraseFail: an erase operation fails its status check. The FTL
	// retires the block instead of returning it to the free pool.
	EraseFail
	// GrantDrop: an Omnibus request/grant exchange is lost. The source
	// controller times out, backs off, retries, and finally fails over to
	// the controller-relayed copy path.
	GrantDrop

	numClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ReadECC:
		return "read-ecc"
	case OnDieECC:
		return "on-die-ecc"
	case ProgramFail:
		return "program-fail"
	case EraseFail:
		return "erase-fail"
	case GrantDrop:
		return "grant-drop"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Config describes one fault campaign. The zero value injects nothing;
// rates are probabilities in [0,1], quotas force a fixed number of
// injections per chip before the rate applies.
type Config struct {
	// Seed drives every draw. Two runs with equal Seed and equal draw
	// sequences observe identical fault outcomes.
	Seed uint64

	// Read path. A faulted read re-senses up to ReadRetryMax times, each
	// retry costing one extra tR plus k*ReadRetryStep; if the ladder is
	// exhausted the page relays through the controller's strong ECC for
	// StrongECCLatency.
	ReadECCRate      float64
	ReadRetryMax     int      // default 3
	ReadRetryStep    sim.Time // default 2us
	StrongECCLatency sim.Time // default 10us

	// OnDieECCRate is the Sec VIII hybrid-ECC fallback probability for
	// direct flash-to-flash copies.
	OnDieECCRate float64

	// Write/erase path. Rates must stay below 1: retirement handling
	// retries the operation on a fresh block, which only terminates when
	// some draw eventually succeeds. Quotas (...PerChip) force that many
	// deterministic failures per chip before the rate takes over.
	ProgramFailRate     float64
	ProgramFailsPerChip int
	EraseFailRate       float64
	EraseFailsPerChip   int

	// Interconnect. GrantDropRate loses request/grant exchanges; a
	// dropped grant resolves after GrantTimeout<<attempt and retries up
	// to GrantRetryMax times — within GrantBackoffBudget of cumulative
	// backoff — before failing over to the relay path.
	// DeadVChannels lists v-channel indexes that are hard-failed from t=0
	// (the kill-switch can also be thrown mid-run via KillVChannel).
	GrantDropRate float64
	GrantTimeout  sim.Time // default 5us
	GrantRetryMax int      // default 3
	// GrantBackoffBudget caps the total backoff time one grant exchange
	// may accumulate before failing over, independent of the retry count.
	// The default covers the full default ladder (the count bound fires
	// first); setting it lower trades recovery attempts for a hard bound
	// on added latency, and every budget-triggered failover is tallied in
	// RAS.GrantBudgetExhausted.
	GrantBackoffBudget sim.Time
	DeadVChannels      []int
}

// withDefaults fills the retry-ladder and timeout knobs.
func (c Config) withDefaults() Config {
	if c.ReadRetryMax == 0 {
		c.ReadRetryMax = 3
	}
	if c.ReadRetryStep == 0 {
		c.ReadRetryStep = 2 * sim.Microsecond
	}
	if c.StrongECCLatency == 0 {
		c.StrongECCLatency = 10 * sim.Microsecond
	}
	if c.GrantTimeout == 0 {
		c.GrantTimeout = 5 * sim.Microsecond
	}
	if c.GrantRetryMax == 0 {
		c.GrantRetryMax = 3
	}
	if c.GrantBackoffBudget == 0 {
		// Wide enough for the whole exponential ladder at the configured
		// retry count: sum of GrantTimeout<<i for i<GrantRetryMax is
		// GrantTimeout*(2^GrantRetryMax - 1), so twice the top term covers
		// it and the count bound remains the default failover trigger.
		c.GrantBackoffBudget = c.GrantTimeout << uint(c.GrantRetryMax)
	}
	return c
}

// Validate reports the first impossible setting: a rate outside its
// range, or a negative quota, retry bound, backoff budget or dead
// v-channel index.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		rate float64
	}{{"read ECC", c.ReadECCRate}, {"on-die ECC", c.OnDieECCRate}, {"grant drop", c.GrantDropRate}} {
		if !(r.rate >= 0 && r.rate <= 1) {
			return fmt.Errorf("fault: %s rate %v outside [0,1]", r.name, r.rate)
		}
	}
	// Program/erase recovery re-runs the operation on a fresh block; a
	// rate of 1 would retry forever.
	if !(c.ProgramFailRate >= 0 && c.ProgramFailRate < 1) {
		return fmt.Errorf("fault: program fail rate %v outside [0,1)", c.ProgramFailRate)
	}
	if !(c.EraseFailRate >= 0 && c.EraseFailRate < 1) {
		return fmt.Errorf("fault: erase fail rate %v outside [0,1)", c.EraseFailRate)
	}
	if c.ProgramFailsPerChip < 0 || c.EraseFailsPerChip < 0 {
		return fmt.Errorf("fault: negative per-chip fail quota")
	}
	if c.ReadRetryMax < 0 || c.GrantRetryMax < 0 {
		return fmt.Errorf("fault: negative retry bound")
	}
	if c.GrantBackoffBudget < 0 {
		return fmt.Errorf("fault: negative grant backoff budget")
	}
	for _, v := range c.DeadVChannels {
		if v < 0 {
			return fmt.Errorf("fault: negative dead v-channel index %d", v)
		}
	}
	return nil
}

// Injector draws deterministic fault outcomes and owns the run's RAS
// counters. All methods are nil-safe.
type Injector struct {
	cfg   Config
	rates [numClasses]float64
	quota [numClasses]int

	draws    [numClasses]uint64
	injected [numClasses]int64

	// quotaUsed counts forced injections per (class, chip key).
	quotaUsed [numClasses]map[uint64]int

	deadV map[int]bool
	ras   *stats.RAS
}

// New builds an injector. The config is validated (New panics with the
// error of Validate) and defaulted.
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	in := &Injector{cfg: cfg, ras: stats.NewRAS(), deadV: make(map[int]bool)}
	in.rates[ReadECC] = cfg.ReadECCRate
	in.rates[OnDieECC] = cfg.OnDieECCRate
	in.rates[ProgramFail] = cfg.ProgramFailRate
	in.rates[EraseFail] = cfg.EraseFailRate
	in.rates[GrantDrop] = cfg.GrantDropRate
	in.quota[ProgramFail] = cfg.ProgramFailsPerChip
	in.quota[EraseFail] = cfg.EraseFailsPerChip
	for c := Class(0); c < numClasses; c++ {
		in.quotaUsed[c] = make(map[uint64]int)
	}
	for _, v := range cfg.DeadVChannels {
		in.deadV[v] = true
	}
	return in
}

// Config returns the validated, defaulted configuration.
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}.withDefaults()
	}
	return in.cfg
}

// RAS returns the run's RAS counters, or nil on a nil injector.
func (in *Injector) RAS() *stats.RAS {
	if in == nil {
		return nil
	}
	return in.ras
}

// Rate returns the current rate for a class (0 on nil).
func (in *Injector) Rate(c Class) float64 {
	if in == nil {
		return 0
	}
	return in.rates[c]
}

// hash advances the class's draw counter and returns a SplitMix64-mixed
// word of (seed, class, counter).
func (in *Injector) hash(c Class) uint64 {
	in.draws[c]++
	x := in.cfg.Seed ^ (uint64(c)+1)*0xA24BAED4963EE407
	x += in.draws[c] * 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Draw returns the next deterministic outcome for a class at its
// configured rate. A zero rate returns false without consuming a draw,
// so disabled classes leave other sequences untouched.
func (in *Injector) Draw(c Class) bool {
	if in == nil || in.rates[c] <= 0 {
		return false
	}
	hit := float64(in.hash(c)%1_000_000)/1_000_000 < in.rates[c]
	if hit {
		in.injected[c]++
	}
	return hit
}

// DrawFor is Draw with a per-chip quota: while the class's quota for the
// given key is unexhausted the draw is forced true, guaranteeing (e.g.)
// "at least N program-fails per chip" regardless of rate.
func (in *Injector) DrawFor(c Class, key uint64) bool {
	if in == nil {
		return false
	}
	if q := in.quota[c]; q > 0 && in.quotaUsed[c][key] < q {
		in.quotaUsed[c][key]++
		in.injected[c]++
		return true
	}
	return in.Draw(c)
}

// Injected returns how many times a class has fired (0 on nil).
func (in *Injector) Injected(c Class) int64 {
	if in == nil {
		return 0
	}
	return in.injected[c]
}

// VChannelDead reports whether a v-channel is kill-switched.
func (in *Injector) VChannelDead(v int) bool {
	if in == nil {
		return false
	}
	return in.deadV[v]
}

// KillVChannel hard-fails a v-channel; traffic must route around it.
func (in *Injector) KillVChannel(v int) { in.deadV[v] = true }

// ReviveVChannel restores a killed v-channel.
func (in *Injector) ReviveVChannel(v int) { delete(in.deadV, v) }
