package ssd

import (
	"math"
	"testing"

	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/ftl"
)

// fuzzBytes reads a fuzz input one field at a time; past the end every
// read is zero.
type fuzzBytes []byte

func (b *fuzzBytes) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// small returns a value in [lo, hi], so zero and negatives appear
// whenever lo <= 0.
func (b *fuzzBytes) small(lo, hi int) int { return lo + int(b.byte())%(hi-lo+1) }

// frac returns a value in about [lo, hi], or NaN or +Inf for the two top
// bytes.
func (b *fuzzBytes) frac(lo, hi float64) float64 {
	switch v := b.byte(); v {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	default:
		return lo + (hi-lo)*float64(v)/253
	}
}

// fuzzConfig decodes a device configuration: grid, geometry, bus rate,
// utilization, GC mode, victim policy and group fraction, allocation
// policy, scheduler, an optional map unit and an optional fault
// campaign. Fields range over invalid values too.
func fuzzConfig(data []byte) (Arch, Config) {
	b := fuzzBytes(data)
	arch := Archs[b.small(0, len(Archs)-1)]
	cfg := DefaultConfig()
	cfg.Channels, cfg.Ways = b.small(-1, 9), b.small(-1, 9)
	cfg.Geometry = flash.Geometry{
		Planes:         b.small(-1, 4),
		BlocksPerPlane: b.small(-1, 24),
		PagesPerBlock:  b.small(-1, 32),
		PageSize:       []int{-1, 0, 1, 7, 8, 64, 4096, 16384}[b.small(0, 7)],
	}
	cfg.BusMTps = b.small(-10, 2000)
	cfg.LogicalUtilization = b.frac(-0.2, 1.2)
	cfg.FTL.GCMode = ftl.GCMode(b.small(-1, 5))
	cfg.FTL.Victim = ftl.VictimPolicy(b.small(-1, 3))
	cfg.FTL.GCGroupFraction = b.frac(-0.2, 1.2)
	switch b.small(0, 2) {
	case 0:
		cfg.FTL.Policy = ftl.PCWD
	case 1:
		cfg.FTL.Policy = ftl.PWCD
	default:
		cfg.FTL.Policy = ftl.AllocPolicy{Order: [3]ftl.Dim{
			ftl.Dim(b.small(-1, 3)), ftl.Dim(b.small(-1, 3)), ftl.Dim(b.small(-1, 3))}}
	}
	cfg.Scheduler = controller.SchedPolicy(b.small(-1, 3))
	if b.byte()%2 == 1 {
		cfg.FTL.Map = &ftl.MapConfig{Entries: b.small(-2, 70)}
	}
	if b.byte()%2 == 1 {
		cfg.Fault = &fault.Config{
			Seed:                uint64(b.byte()),
			ReadECCRate:         b.frac(-0.1, 1.1),
			OnDieECCRate:        b.frac(-0.1, 1.1),
			GrantDropRate:       b.frac(-0.1, 1.1),
			ProgramFailsPerChip: b.small(-1, 3),
			EraseFailsPerChip:   b.small(-1, 3),
			DeadVChannels:       []int{b.small(-1, 9)},
		}
	}
	return arch, cfg
}

// FuzzConfig: Validate is the one gate of a device configuration. On any
// decoded configuration it must not panic, and whenever it returns nil
// New must build the device and its host must warm up the whole logical
// space without panicking. Only devices of at most 4096 pages and 64
// chips are built, so a case allocates little.
func FuzzConfig(f *testing.F) {
	// Each byte is a field's offset from the low end of its range.
	f.Add([]byte{4, 5, 5, 3, 9, 17, 6, 210, 172, 2, 1, 127, 0, 1, 0, 0})                        // 4096-page pnSSD, PaGC
	f.Add([]byte{5, 3, 5, 3, 9, 17, 6, 210, 172, 4, 2, 127, 1, 3, 1, 10, 2, 0})                 // SpGC, cost-benefit, PWCD, ooo, fmmu
	f.Add([]byte{0, 3, 3, 2, 9, 9, 6, 210, 172, 2, 1, 127, 0, 2, 0, 1, 9, 23, 23, 23, 3, 2, 2}) // faults
	f.Add([]byte{1, 2, 2, 2, 2, 2, 6, 210, 194, 1, 1, 127, 0, 1, 0, 0})                         // one page: no logical capacity
	f.Add([]byte{2, 3, 3, 3, 9, 17, 6, 210, 172, 4, 1, 0, 0, 1, 0, 0})                          // SpGC group fraction below 0
	f.Add([]byte{3, 2, 2, 2, 4, 9, 6, 210, 172, 1, 1, 127, 0, 1, 1, 2, 0, 0})                   // map region too big
	f.Add([]byte{4, 5, 5, 3, 9, 17, 6, 210, 172, 6, 1, 127, 0, 1, 0, 0})                        // GC mode 5
	f.Add([]byte{4, 5, 5, 3, 9, 17, 6, 210, 172, 2, 4, 127, 0, 1, 0, 0})                        // victim policy 3
	f.Add([]byte{4, 5, 5, 3, 9, 17, 6, 210, 172, 2, 1, 127, 2, 1, 1, 1, 1, 0, 0})               // the zero allocation order
	f.Add([]byte{4, 5, 5, 3, 9, 17, 6, 210, 172, 2, 1, 127, 2, 1, 2, 4, 1, 0, 0})               // allocation order {0,1,3}
	f.Add([]byte{4, 5, 5, 3, 9, 17, 6, 210, 172, 2, 1, 127, 2, 3, 1, 2, 1, 0, 0})               // allocation order {2,0,1}
	f.Add([]byte{0, 2, 2, 2, 5, 9, 6, 210, 172, 2, 1, 127, 0, 1, 1, 2, 0, 0})                   // fmmu map region leaves no room to warm up
	f.Fuzz(func(t *testing.T, data []byte) {
		arch, cfg := fuzzConfig(data)
		if err := cfg.Validate(); err != nil {
			return
		}
		if cfg.RawPages() > 4096 || cfg.Channels*cfg.Ways > 64 {
			return
		}
		New(arch, cfg).Host.Warmup(cfg.LogicalPages())
	})
}
