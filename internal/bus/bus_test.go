package bus

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestChannelBandwidth(t *testing.T) {
	e := sim.NewEngine()
	narrow := NewChannel(e, "h0", 8, 1000)
	wide := NewChannel(e, "p0", 16, 1000)
	tiny := NewChannel(e, "m0", 2, 1000)
	if narrow.BandwidthMBps() != 1000 {
		t.Fatalf("8-bit bandwidth = %v, want 1000 MB/s", narrow.BandwidthMBps())
	}
	if wide.BandwidthMBps() != 2000 {
		t.Fatalf("16-bit bandwidth = %v, want 2000 MB/s", wide.BandwidthMBps())
	}
	if tiny.BandwidthMBps() != 250 {
		t.Fatalf("2-bit bandwidth = %v, want 250 MB/s", tiny.BandwidthMBps())
	}
}

func TestChannelTimeForFlits(t *testing.T) {
	e := sim.NewEngine()
	c8 := NewChannel(e, "c8", 8, 1000)
	c16 := NewChannel(e, "c16", 16, 1000)
	c2 := NewChannel(e, "c2", 2, 1000)
	// 8-bit @ 1000 MT/s: one flit per ns.
	if got := c8.TimeForFlits(16384); got != 16384*sim.Nanosecond {
		t.Fatalf("8-bit 16K flits = %v", got)
	}
	// 16-bit: two flits per beat.
	if got := c16.TimeForFlits(16384); got != 8192*sim.Nanosecond {
		t.Fatalf("16-bit 16K flits = %v", got)
	}
	// Odd flit count on a wide channel rounds up.
	if got := c16.TimeForFlits(3); got != 2*sim.Nanosecond {
		t.Fatalf("16-bit 3 flits = %v, want 2ns", got)
	}
	// 2-bit: four beats per flit.
	if got := c2.TimeForFlits(1); got != 4*sim.Nanosecond {
		t.Fatalf("2-bit 1 flit = %v, want 4ns", got)
	}
}

func TestChannelFIFO(t *testing.T) {
	e := sim.NewEngine()
	c := NewChannel(e, "ch", 8, 1000)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		c.Use(10*sim.Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	if e.Now() != 30*sim.Nanosecond {
		t.Fatalf("now = %v, want 30ns", e.Now())
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestChannelLoad(t *testing.T) {
	e := sim.NewEngine()
	c := NewChannel(e, "ch", 8, 1000)
	if c.Load() != 0 {
		t.Fatalf("idle load = %d", c.Load())
	}
	c.Use(100, nil)
	c.Use(100, nil)
	if c.Load() != 2 {
		t.Fatalf("load = %d, want 2 (1 busy + 1 queued)", c.Load())
	}
	e.Run()
	if c.Load() != 0 {
		t.Fatalf("drained load = %d", c.Load())
	}
}

func TestDedicatedTiming(t *testing.T) {
	d := NewDedicated(1000)
	// Page readout of 16 KB at 1 B/ns plus 50ns handshake.
	if got := d.ReadXfer(16384); got != 16434*sim.Nanosecond {
		t.Fatalf("ReadXfer = %v, want 16.434us", got)
	}
	// Program: 120ns cmd+addr then 16.384us payload.
	if got := d.ProgramXfer(16384); got != 16504*sim.Nanosecond {
		t.Fatalf("ProgramXfer = %v, want 16.504us", got)
	}
	if d.ReadCmd() != 120*sim.Nanosecond {
		t.Fatalf("ReadCmd = %v", d.ReadCmd())
	}
	if d.EraseCmd() != 100*sim.Nanosecond {
		t.Fatalf("EraseCmd = %v", d.EraseCmd())
	}
}

func TestPacketizedTimingOn16Bit(t *testing.T) {
	e := sim.NewEngine()
	ch := NewChannel(e, "p", 16, 1000)
	p := NewPacketized(ch)
	// Control packet: 8 flits on 16 bits = 4 beats = 4ns, plus 50ns handshake.
	if got := p.ReadCmd(); got != 54*sim.Nanosecond {
		t.Fatalf("ReadCmd = %v, want 54ns", got)
	}
	// Readout: 50ns + 4ns xfer-cmd + data packet (16387 flits -> 8194 beats).
	want := 50*sim.Nanosecond + 4*sim.Nanosecond + 8194*sim.Nanosecond
	if got := p.ReadXfer(16384); got != want {
		t.Fatalf("ReadXfer = %v, want %v", got, want)
	}
}

func TestPacketizedFasterThanDedicatedAt2xWidth(t *testing.T) {
	// The core pSSD claim: same pins, ~2x effective bandwidth. A 16 KB page
	// readout on the 16-bit packetized interface must take close to half
	// the time of the 8-bit dedicated interface.
	e := sim.NewEngine()
	d := NewDedicated(1000)
	p := NewPacketized(NewChannel(e, "p", 16, 1000))
	dt := d.ReadXfer(16384)
	pt := p.ReadXfer(16384)
	ratio := float64(dt) / float64(pt)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("dedicated/packetized readout ratio = %.3f, want ~2.0 (d=%v p=%v)", ratio, dt, pt)
	}
}

func TestPacketizedSameWidthSlightOverhead(t *testing.T) {
	// At equal width the packetized interface pays only the header flits,
	// so it should be within 0.5% of dedicated for page transfers.
	e := sim.NewEngine()
	d := NewDedicated(1000)
	p := NewPacketized(NewChannel(e, "p", 8, 1000))
	dt := d.ReadXfer(16384).Nanoseconds()
	pt := p.ReadXfer(16384).Nanoseconds()
	if pt < dt*0.99 || pt > dt*1.005 {
		t.Fatalf("packetized 8-bit readout %vns vs dedicated %vns", pt, dt)
	}
}

func TestPacketizedVXfer(t *testing.T) {
	e := sim.NewEngine()
	ch := NewChannel(e, "v", 8, 1000)
	p := NewPacketized(ch)
	// 50ns + 2 control packets (8ns each) + data packet 16387ns
	want := 50*sim.Nanosecond + 16*sim.Nanosecond + 16387*sim.Nanosecond
	if got := p.VXfer(16384); got != want {
		t.Fatalf("VXfer = %v, want %v", got, want)
	}
}

func TestChannelInvalidParamsPanics(t *testing.T) {
	e := sim.NewEngine()
	for _, c := range []struct{ w, r int }{{0, 1000}, {8, 0}, {-8, 1000}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewChannel(%d,%d) did not panic", c.w, c.r)
				}
			}()
			NewChannel(e, "bad", c.w, c.r)
		}()
	}
}

// Property: serialization time is monotone in flit count and exactly
// inversely proportional to width for width-divisible counts.
func TestTimeForFlitsProperty(t *testing.T) {
	e := sim.NewEngine()
	c8 := NewChannel(e, "c8", 8, 1000)
	c16 := NewChannel(e, "c16", 16, 1000)
	prop := func(nRaw uint16) bool {
		n := int(nRaw)
		if c8.TimeForFlits(n+1) < c8.TimeForFlits(n) {
			return false
		}
		// even counts: 16-bit takes exactly half the 8-bit time
		even := n * 2
		return c16.TimeForFlits(even) == c8.TimeForFlits(even)/2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
