package flash

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TestODCProtocolSoak drives the on-die controller through hundreds of
// randomly interleaved program / read / erase / flash-to-flash transfer
// sequences using real encoded packets, mirroring how a packetized
// channel controller would talk to the chip, and verifies every content
// movement end to end.
func TestODCProtocolSoak(t *testing.T) {
	e := sim.NewEngine()
	geo := Geometry{Planes: 2, BlocksPerPlane: 16, PagesPerBlock: 8, PageSize: 4096}
	src := NewChip(e, "src", geo, ULLTiming())
	dst := NewChip(e, "dst", geo, ULLTiming())
	srcODC := NewOnDieController(e, src)
	dstODC := NewOnDieController(e, dst)
	rng := rand.New(rand.NewSource(99))

	type page struct {
		chip *Chip
		odc  *OnDieController
		addr PPA
	}
	// Sequential allocation cursors per (chip, plane, block).
	next := map[*Chip]map[int]*int{src: {}, dst: {}}
	alloc := func(c *Chip) (PPA, bool) {
		for plane := 0; plane < geo.Planes; plane++ {
			for b := 0; b < geo.BlocksPerPlane; b++ {
				key := plane*geo.BlocksPerPlane + b
				if next[c][key] == nil {
					z := 0
					next[c][key] = &z
				}
				if *next[c][key] < geo.PagesPerBlock {
					p := PPA{Plane: plane, Block: b, Page: *next[c][key]}
					*next[c][key]++
					return p, true
				}
			}
		}
		return PPA{}, false
	}

	written := map[page]Token{}
	var pages []page
	content := func(p page) Token { return p.chip.ContentAt(p.addr) }

	mustEncode := func(c packet.Control) []byte {
		b, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	program := func(c *Chip, odc *OnDieController) {
		addr, ok := alloc(c)
		if !ok {
			return
		}
		tok := Token(rng.Uint64())
		if err := odc.Submit(mustEncode(packet.ProgramControl(c.Address(addr))), nil, nil); err != nil {
			t.Fatal(err)
		}
		data, err := (packet.Data{Payload: TokenPayload(tok)}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := odc.Submit(data, nil, nil); err != nil {
			t.Fatal(err)
		}
		e.Run()
		p := page{chip: c, odc: odc, addr: addr}
		written[p] = tok
		pages = append(pages, p)
	}

	readBack := func(p page) Token {
		if err := p.odc.Submit(mustEncode(packet.ReadControl(p.chip.Address(p.addr))), nil, nil); err != nil {
			t.Fatal(err)
		}
		e.Run()
		var resp []byte
		if err := p.odc.Submit(mustEncode(packet.ReadXferControl(p.chip.Address(p.addr))), func(b []byte) { resp = b }, nil); err != nil {
			t.Fatal(err)
		}
		e.Run()
		d, _, err := packet.DecodeData(resp)
		if err != nil {
			t.Fatal(err)
		}
		return PayloadToken(d.Payload)
	}

	xfer := func(from, to page) bool {
		// Read source into its register, arm destination, push, commit.
		if to.chip.VPagesHeld() == NumVPageRegisters {
			return false
		}
		if err := from.odc.Submit(mustEncode(packet.ReadControl(from.chip.Address(from.addr))), nil, nil); err != nil {
			t.Fatal(err)
		}
		e.Run()
		dstAddr, ok := alloc(to.chip)
		if !ok {
			return false
		}
		if err := to.odc.Submit(mustEncode(packet.VXferInControl(to.chip.Address(dstAddr))), nil, nil); err != nil {
			t.Fatal(err)
		}
		var wire []byte
		if err := from.odc.Submit(mustEncode(packet.VXferOutControl(from.chip.Address(from.addr))), func(b []byte) { wire = b }, nil); err != nil {
			t.Fatal(err)
		}
		e.Run()
		if err := to.odc.Submit(wire, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := to.odc.Submit(mustEncode(packet.VCommitControl(to.chip.Address(dstAddr))), nil, nil); err != nil {
			t.Fatal(err)
		}
		e.Run()
		np := page{chip: to.chip, odc: to.odc, addr: dstAddr}
		written[np] = written[from]
		pages = append(pages, np)
		return true
	}

	for i := 0; i < 400; i++ {
		switch rng.Intn(4) {
		case 0:
			program(src, srcODC)
		case 1:
			program(dst, dstODC)
		case 2:
			if len(pages) > 0 {
				p := pages[rng.Intn(len(pages))]
				if got := readBack(p); got != written[p] {
					t.Fatalf("iter %d: read of %v on %s = %x, want %x", i, p.addr, p.chip.Name(), got, written[p])
				}
			}
		case 3:
			if len(pages) > 0 {
				from := pages[rng.Intn(len(pages))]
				to := src
				toODC := srcODC
				if from.chip == src {
					to, toODC = dst, dstODC
				}
				xfer(from, page{chip: to, odc: toODC})
			}
		}
	}

	// Final sweep: every page the soak wrote still carries its token.
	for p, tok := range written {
		if content(p) != tok {
			t.Fatalf("final sweep: %v on %s = %x, want %x", p.addr, p.chip.Name(), content(p), tok)
		}
	}
	if srcODC.PacketsDecoded() == 0 || dstODC.PacketsDecoded() == 0 {
		t.Fatal("soak did not exercise both on-die controllers")
	}
	t.Logf("soak: %d pages written, %d/%d packets decoded",
		len(written), srcODC.PacketsDecoded(), dstODC.PacketsDecoded())
}
