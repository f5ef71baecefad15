package flash

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestChipProtocolSoak drives two chips through hundreds of randomly
// interleaved program / read-back / erase / flash-to-flash copy
// sequences, issued the way the fabrics issue them, and verifies every
// content movement end to end. A copy reads the source page into its
// page register, claims a destination V-page register with WaitVPage,
// stores the payload with SetVPage and commits it with
// ProgramFromVPage. Up to three copies queue on one destination at once,
// so the third waits for a register the first commit frees.
func TestChipProtocolSoak(t *testing.T) {
	e := sim.NewEngine()
	geo := Geometry{Planes: 2, BlocksPerPlane: 16, PagesPerBlock: 8, PageSize: 4096}
	src := NewChip(e, "src", geo, ULLTiming())
	dst := NewChip(e, "dst", geo, ULLTiming())
	rng := rand.New(rand.NewSource(99))

	type page struct {
		chip *Chip
		addr PPA
	}
	// Sequential allocation cursors per (chip, plane*blocks + block).
	next := map[*Chip][]int{
		src: make([]int, geo.Planes*geo.BlocksPerPlane),
		dst: make([]int, geo.Planes*geo.BlocksPerPlane),
	}
	alloc := func(c *Chip) (PPA, bool) {
		for key, n := range next[c] {
			if n < geo.PagesPerBlock {
				next[c][key]++
				return PPA{Plane: key / geo.BlocksPerPlane, Block: key % geo.BlocksPerPlane, Page: n}, true
			}
		}
		return PPA{}, false
	}
	other := func(c *Chip) *Chip {
		if c == src {
			return dst
		}
		return src
	}

	written := map[page]Token{}
	var pages []page
	var copies, waits, erases int

	program := func(c *Chip) {
		addr, ok := alloc(c)
		if !ok {
			return
		}
		tok := Token(rng.Uint64())
		done := false
		c.Program([]ProgramOp{{Addr: addr, Token: tok}}, func() { done = true })
		e.Run()
		if !done {
			t.Fatal("program completion never fired")
		}
		p := page{chip: c, addr: addr}
		written[p] = tok
		pages = append(pages, p)
	}

	readBack := func(p page) Token {
		done := false
		p.chip.Read([]PPA{p.addr}, func() { done = true })
		e.Run()
		if !done {
			t.Fatal("read completion never fired")
		}
		return p.chip.PageRegister(p.addr.Plane)
	}

	// copyBurst reads up to three pages on one chip, then queues their
	// flash-to-flash copies into the other chip before running the
	// engine, so a third copy waits for a register.
	copyBurst := func(k int) {
		from := pages[rng.Intn(len(pages))].chip
		to := other(from)
		var srcs []page
		var toks []Token
		for len(srcs) < k {
			if f := pages[rng.Intn(len(pages))]; f.chip == from {
				tok := readBack(f)
				if tok != written[f] {
					t.Fatalf("copy source %v on %s read %x, want %x", f.addr, f.chip.name, tok, written[f])
				}
				srcs = append(srcs, f)
				toks = append(toks, tok)
			}
		}
		queued, committed := 0, 0
		for i, f := range srcs {
			dstAddr, ok := alloc(to)
			if !ok {
				break
			}
			tok := toks[i]
			claimed := false
			to.WaitVPage(func(reg int) {
				claimed = true
				to.SetVPage(reg, tok)
				to.ProgramFromVPage(reg, dstAddr, func() { committed++ })
			})
			if !claimed {
				waits++
			}
			np := page{chip: to, addr: dstAddr}
			written[np] = written[f]
			pages = append(pages, np)
			queued++
		}
		e.Run()
		if committed != queued || to.VPagesHeld() != 0 {
			t.Fatalf("burst committed %d of %d copies, %d V-page registers still held", committed, queued, to.VPagesHeld())
		}
		copies += queued
	}

	// erase wipes one block that holds written pages and frees its
	// cursor for reuse.
	erase := func() {
		victim := pages[rng.Intn(len(pages))]
		blk := PPA{Plane: victim.addr.Plane, Block: victim.addr.Block}
		start := e.Now()
		done := false
		victim.chip.Erase([]PPA{blk}, func() { done = true })
		e.Run()
		if !done || e.Now()-start < victim.chip.timing.Erase {
			t.Fatalf("erase done=%v after %v, want tBERS %v", done, e.Now()-start, victim.chip.timing.Erase)
		}
		kept := pages[:0]
		for _, p := range pages {
			if p.chip == victim.chip && p.addr.Plane == blk.Plane && p.addr.Block == blk.Block {
				if st := p.chip.PageStateAt(p.addr); st != PageErased {
					t.Fatalf("erased page %v on %s in state %v", p.addr, p.chip.name, st)
				}
				delete(written, p)
				continue
			}
			kept = append(kept, p)
		}
		pages = kept
		next[victim.chip][blk.Plane*geo.BlocksPerPlane+blk.Block] = 0
		erases++
	}

	for i := 0; i < 400; i++ {
		switch op := rng.Intn(20); {
		case op < 6:
			program(src)
		case op < 12:
			program(dst)
		case len(pages) == 0:
		case op < 16:
			p := pages[rng.Intn(len(pages))]
			if got := readBack(p); got != written[p] {
				t.Fatalf("iter %d: read of %v on %s = %x, want %x", i, p.addr, p.chip.name, got, written[p])
			}
		case op < 19:
			copyBurst(1 + rng.Intn(3))
		default:
			erase()
		}
	}

	// Final sweep: every page the soak wrote still carries its token.
	for p, tok := range written {
		if got := p.chip.ContentAt(p.addr); got != tok {
			t.Fatalf("final sweep: %v on %s = %x, want %x", p.addr, p.chip.name, got, tok)
		}
	}
	if copies == 0 || waits == 0 || erases == 0 {
		t.Fatalf("soak made %d copies (%d waited for a register) and %d erases, want all > 0", copies, waits, erases)
	}
	t.Logf("soak: %d live pages, %d copies (%d waited for a register), %d erases", len(written), copies, waits, erases)
}
