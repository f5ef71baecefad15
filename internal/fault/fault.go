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

// Class identifies one fault class. Each class has its own rate or
// per-chip quota, and its own draw counter, so enabling one class never
// perturbs the draw sequence of another.
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

// Recovery ladders. Every campaign recovers from a fault the same way,
// so the ladders are fixed, not per-campaign settings.
const (
	// ReadRetryMax bounds the re-senses of a faulted read; retry k costs
	// one extra tR plus k*ReadRetryStep. A read that exhausts the ladder
	// relays through the controller's strong ECC for StrongECCLatency.
	ReadRetryMax     = 3
	ReadRetryStep    = 2 * sim.Microsecond
	StrongECCLatency = 10 * sim.Microsecond

	// A dropped Omnibus grant resolves after GrantTimeout<<attempt and
	// is retried up to GrantRetryMax times before the copy fails over to
	// the relay path.
	GrantTimeout  = 5 * sim.Microsecond
	GrantRetryMax = 3
)

// Config describes one fault campaign. The zero value injects nothing;
// rates are probabilities in [0,1], quotas force a fixed number of
// injections per chip.
type Config struct {
	// Seed drives every draw. Two runs with equal Seed and equal draw
	// sequences observe identical fault outcomes.
	Seed uint64

	// ReadECCRate is the probability that a page sense fails on-chip
	// ECC and climbs the read-retry ladder.
	ReadECCRate float64

	// OnDieECCRate is the Sec VIII hybrid-ECC fallback probability for
	// direct flash-to-flash copies.
	OnDieECCRate float64

	// Write/erase path. Each chip's first ProgramFailsPerChip programs
	// and EraseFailsPerChip erases fail; the FTL retires the block and
	// retries the operation on a fresh one.
	ProgramFailsPerChip int
	EraseFailsPerChip   int

	// Interconnect. GrantDropRate loses request/grant exchanges.
	// DeadVChannels lists v-channel indexes that are hard-failed from t=0
	// (the kill-switch can also be thrown mid-run via KillVChannel).
	GrantDropRate float64
	DeadVChannels []int
}

// Validate reports the first impossible setting: a rate outside [0,1],
// a negative quota or a negative dead v-channel index.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		rate float64
	}{{"read ECC", c.ReadECCRate}, {"on-die ECC", c.OnDieECCRate}, {"grant drop", c.GrantDropRate}} {
		if !(r.rate >= 0 && r.rate <= 1) {
			return fmt.Errorf("fault: %s rate %v outside [0,1]", r.name, r.rate)
		}
	}
	if c.ProgramFailsPerChip < 0 || c.EraseFailsPerChip < 0 {
		return fmt.Errorf("fault: negative per-chip fail quota")
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
	seed  uint64
	rates [numClasses]float64
	quota [numClasses]int

	draws    [numClasses]uint64
	injected [numClasses]int64

	// quotaUsed counts forced injections per (class, chip key).
	quotaUsed [numClasses]map[uint64]int

	deadV map[int]bool
	ras   *stats.RAS
}

// New builds an injector. New panics with the error of Validate.
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	in := &Injector{seed: cfg.Seed, ras: stats.NewRAS(), deadV: make(map[int]bool)}
	in.rates[ReadECC] = cfg.ReadECCRate
	in.rates[OnDieECC] = cfg.OnDieECCRate
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
	x := in.seed ^ (uint64(c)+1)*0xA24BAED4963EE407
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
