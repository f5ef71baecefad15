package flash

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

func encode(t *testing.T, c packet.Control) []byte {
	t.Helper()
	b, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func encodeData(t *testing.T, d packet.Data) []byte {
	t.Helper()
	b, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Full packetized write-then-read protocol against the on-die controller,
// exactly as the channel controller would drive it (Fig 6(b)).
func TestODCProgramReadProtocol(t *testing.T) {
	e := sim.NewEngine()
	chip := newTestChip(e)
	odc := NewOnDieController(e, chip)
	addr := PPA{Plane: 1, Block: 2, Page: 0}
	wire := chip.Address(addr)

	// Program: control packet arms, data packet carries the payload.
	if err := odc.Submit(encode(t, packet.ProgramControl(wire)), nil, nil); err != nil {
		t.Fatal(err)
	}
	programmed := false
	if err := odc.Submit(encodeData(t, packet.Data{Payload: TokenPayload(0xFACE)}), nil, func() { programmed = true }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !programmed {
		t.Fatal("program ready never fired")
	}
	if chip.ContentAt(addr) != 0xFACE {
		t.Fatalf("content = %x", chip.ContentAt(addr))
	}

	// Read: control packet starts tR; after ready, a read-transfer control
	// packet elicits the data packet.
	ready := false
	if err := odc.Submit(encode(t, packet.ReadControl(wire)), nil, func() { ready = true }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !ready {
		t.Fatal("read ready never fired")
	}
	var resp []byte
	if err := odc.Submit(encode(t, packet.ReadXferControl(wire)), func(b []byte) { resp = b }, nil); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if resp == nil {
		t.Fatal("no data packet returned")
	}
	d, _, err := packet.DecodeData(resp)
	if err != nil {
		t.Fatal(err)
	}
	if PayloadToken(d.Payload) != 0xFACE {
		t.Fatalf("read token = %x", PayloadToken(d.Payload))
	}
}

func TestODCEraseProtocol(t *testing.T) {
	e := sim.NewEngine()
	chip := newTestChip(e)
	odc := NewOnDieController(e, chip)
	addr := PPA{Plane: 0, Block: 3, Page: 0}
	chip.Program([]ProgramOp{{Addr: addr, Token: 7}}, nil)
	e.Run()

	done := false
	if err := odc.Submit(encode(t, packet.EraseControl(chip.Address(addr))), nil, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	start := e.Now()
	e.Run()
	if !done {
		t.Fatal("erase never completed")
	}
	if e.Now()-start < sim.Millisecond {
		t.Fatalf("erase completed in %v, want >= 1ms", e.Now()-start)
	}
	if chip.PageStateAt(addr) != PageErased {
		t.Fatal("block not erased")
	}
}

// Direct flash-to-flash copy over a v-channel: source VXferOut produces a
// ToVPage data packet; destination VXferIn + data + VCommit lands it.
func TestODCFlashToFlashProtocol(t *testing.T) {
	e := sim.NewEngine()
	src := NewChip(e, "src", testGeo(), ULLTiming())
	dst := NewChip(e, "dst", testGeo(), ULLTiming())
	srcODC := NewOnDieController(e, src)
	dstODC := NewOnDieController(e, dst)

	from := PPA{Plane: 0, Block: 1, Page: 0}
	to := PPA{Plane: 2, Block: 5, Page: 0}
	src.Program([]ProgramOp{{Addr: from, Token: 0xC0FFEE}}, nil)
	e.Run()

	// Source reads the page into its register.
	if err := srcODC.Submit(encode(t, packet.ReadControl(src.Address(from))), nil, nil); err != nil {
		t.Fatal(err)
	}
	e.Run()

	// Destination arms a V-page register.
	if err := dstODC.Submit(encode(t, packet.VXferInControl(dst.Address(to))), nil, nil); err != nil {
		t.Fatal(err)
	}
	// Source pushes the register onto the v-channel; the "wire" here is the
	// test relaying the data packet to the destination.
	var onWire []byte
	if err := srcODC.Submit(encode(t, packet.VXferOutControl(src.Address(from))), func(b []byte) { onWire = b }, nil); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if onWire == nil {
		t.Fatal("VXferOut produced no data packet")
	}
	d, _, err := packet.DecodeData(onWire)
	if err != nil {
		t.Fatal(err)
	}
	if !d.ToVPage {
		t.Fatal("v-channel data packet missing ToVPage flag")
	}
	if err := dstODC.Submit(onWire, nil, nil); err != nil {
		t.Fatal(err)
	}
	e.Run()

	// Commit into the destination array.
	committed := false
	if err := dstODC.Submit(encode(t, packet.VCommitControl(dst.Address(to))), nil, func() { committed = true }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !committed {
		t.Fatal("VCommit never completed")
	}
	if dst.ContentAt(to) != 0xC0FFEE {
		t.Fatalf("flash-to-flash copy corrupted: %x", dst.ContentAt(to))
	}
	if dst.VPagesHeld() != 0 {
		t.Fatal("V-page register leaked after commit")
	}
}

func TestODCGarbagePacket(t *testing.T) {
	e := sim.NewEngine()
	odc := NewOnDieController(e, newTestChip(e))
	if err := odc.Submit(nil, nil, nil); err == nil {
		t.Fatal("nil packet accepted")
	}
	if err := odc.Submit([]byte{0xFF, 0x00}, nil, nil); err == nil {
		t.Fatal("bad type accepted")
	}
}

func TestODCUnexpectedDataPanics(t *testing.T) {
	e := sim.NewEngine()
	odc := NewOnDieController(e, newTestChip(e))
	if err := odc.Submit(encodeData(t, packet.Data{Payload: TokenPayload(1)}), nil, nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("orphan data packet did not panic")
		}
	}()
	e.Run()
}

func TestODCDecodeLatencyCounted(t *testing.T) {
	e := sim.NewEngine()
	chip := newTestChip(e)
	odc := NewOnDieController(e, chip)
	chip.Program([]ProgramOp{{Addr: PPA{0, 0, 0}, Token: 5}}, nil)
	e.Run()
	start := e.Now()
	odc.Submit(encode(t, packet.ReadControl(chip.Address(PPA{0, 0, 0}))), nil, nil)
	e.Run()
	want := DefaultDecodeLatency + 3*sim.Microsecond
	if e.Now()-start != want {
		t.Fatalf("read via ODC took %v, want %v", e.Now()-start, want)
	}
	if odc.PacketsDecoded() != 1 {
		t.Fatalf("PacketsDecoded = %d", odc.PacketsDecoded())
	}
}

func TestTokenPayloadRoundTrip(t *testing.T) {
	for _, tok := range []Token{0, 1, 0xDEADBEEFCAFEF00D} {
		if PayloadToken(TokenPayload(tok)) != tok {
			t.Fatalf("token %x did not round-trip", tok)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short payload did not panic")
		}
	}()
	PayloadToken([]byte{1, 2})
}
