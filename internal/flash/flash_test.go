package flash

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testGeo() Geometry {
	return Geometry{Planes: 4, BlocksPerPlane: 8, PagesPerBlock: 16, PageSize: 16384}
}

func newTestChip(e *sim.Engine) *Chip {
	return NewChip(e, "chip0", testGeo(), ULLTiming())
}

func TestGeometryArithmetic(t *testing.T) {
	g := Geometry{Planes: 4, BlocksPerPlane: 1024, PagesPerBlock: 512, PageSize: 16384}
	if g.PagesPerChip() != 4*1024*512 {
		t.Fatalf("PagesPerChip = %d", g.PagesPerChip())
	}
}

func TestULLTiming(t *testing.T) {
	tm := ULLTiming()
	if tm.Read != 3*sim.Microsecond || tm.Program != 50*sim.Microsecond || tm.Erase != sim.Millisecond {
		t.Fatalf("ULL timing = %+v", tm)
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	a := PPA{Plane: 2, Block: 3, Page: 0}
	done := false
	c.Program([]ProgramOp{{Addr: a, Token: 0xDEADBEEF}}, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("program completion never fired")
	}
	if e.Now() != 50*sim.Microsecond {
		t.Fatalf("program took %v, want 50us", e.Now())
	}
	if c.PageStateAt(a) != PageProgrammed || c.ContentAt(a) != 0xDEADBEEF {
		t.Fatal("page not programmed with token")
	}
	start := e.Now()
	c.Read([]PPA{a}, nil)
	e.Run()
	if e.Now()-start != 3*sim.Microsecond {
		t.Fatalf("read took %v, want 3us", e.Now()-start)
	}
	if c.PageRegister(2) != 0xDEADBEEF {
		t.Fatalf("page register = %x", c.PageRegister(2))
	}
	r, p, er := c.Counters()
	if r != 1 || p != 1 || er != 0 {
		t.Fatalf("counters = %d,%d,%d", r, p, er)
	}
}

func TestMultiPlaneOps(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	var ops []ProgramOp
	for pl := 0; pl < 4; pl++ {
		ops = append(ops, ProgramOp{Addr: PPA{Plane: pl, Block: 1, Page: 0}, Token: Token(100 + pl)})
	}
	c.Program(ops, nil)
	e.Run()
	// One multi-plane program = one tPROG, not four.
	if e.Now() != 50*sim.Microsecond {
		t.Fatalf("multi-plane program took %v, want 50us", e.Now())
	}
	start := e.Now()
	ppas := []PPA{{0, 1, 0}, {1, 1, 0}, {2, 1, 0}, {3, 1, 0}}
	c.Read(ppas, nil)
	e.Run()
	if e.Now()-start != 3*sim.Microsecond {
		t.Fatalf("multi-plane read took %v, want 3us", e.Now()-start)
	}
	for pl := 0; pl < 4; pl++ {
		if c.PageRegister(pl) != Token(100+pl) {
			t.Fatalf("plane %d register = %v", pl, c.PageRegister(pl))
		}
	}
}

func TestDieSerializesOps(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	c.Program([]ProgramOp{{Addr: PPA{0, 0, 0}, Token: 1}}, nil)
	c.Program([]ProgramOp{{Addr: PPA{0, 0, 1}, Token: 2}}, nil)
	e.Run()
	if e.Now() != 100*sim.Microsecond {
		t.Fatalf("two programs took %v, want 100us (serialized)", e.Now())
	}
}

// TestDieEventsPerOp pins how many events each array operation costs.
// Every one is a timed hold of the die, one event each. A read's length,
// which its ECC penalty extends, is set at the grant without an event of
// its own.
func TestDieEventsPerOp(t *testing.T) {
	a := PPA{Plane: 1, Block: 2, Page: 0} // installed before each op
	for _, tc := range []struct {
		name string
		op   func(c *Chip)
		want int64
	}{
		{"program", func(c *Chip) { c.Program([]ProgramOp{{Addr: PPA{Plane: 1, Block: 3}, Token: 7}}, nil) }, 1},
		{"erase", func(c *Chip) { c.Erase([]PPA{a}, nil) }, 1},
		{"read", func(c *Chip) { c.Read([]PPA{a}, nil) }, 1},
	} {
		e := sim.NewEngine()
		c := newTestChip(e)
		c.InstallPage(a, 7)
		tc.op(c)
		e.Run()
		if got := e.EventsFired(); got != tc.want {
			t.Errorf("%s fired %d events, want %d", tc.name, got, tc.want)
		}
	}
}

// TestReadQueuedBehindProgramSeesToken checks that a read issued while a
// program of the same page holds the die waits for it and senses the
// programmed token, not the erased one.
func TestReadQueuedBehindProgramSeesToken(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	a := PPA{Plane: 3, Block: 1, Page: 0}
	c.Program([]ProgramOp{{Addr: a, Token: 0xBEEF}}, nil)
	var got Token
	var at sim.Time
	c.Read([]PPA{a}, func() { got, at = c.PageRegister(3), e.Now() })
	e.Run()
	if got != 0xBEEF {
		t.Fatalf("queued read sensed %x, want the programmed token beef", got)
	}
	if want := 53 * sim.Microsecond; at != want {
		t.Fatalf("queued read finished at %v, want %v (tPROG then tR)", at, want)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	for pg := 0; pg < 3; pg++ {
		c.Program([]ProgramOp{{Addr: PPA{1, 2, pg}, Token: Token(pg + 1)}}, nil)
	}
	e.Run()
	c.Erase([]PPA{{Plane: 1, Block: 2}}, nil)
	start := e.Now()
	e.Run()
	if e.Now()-start != sim.Millisecond {
		t.Fatalf("erase took %v, want 1ms", e.Now()-start)
	}
	for pg := 0; pg < 3; pg++ {
		a := PPA{1, 2, pg}
		if c.PageStateAt(a) != PageErased || c.ContentAt(a) != ErasedToken {
			t.Fatalf("page %v not erased", a)
		}
	}
	if c.EraseCount(1, 2) != 1 {
		t.Fatalf("erase count = %d", c.EraseCount(1, 2))
	}
	// Block is reprogrammable from page 0 after erase.
	c.Program([]ProgramOp{{Addr: PPA{1, 2, 0}, Token: 9}}, nil)
	e.Run()
	if c.ContentAt(PPA{1, 2, 0}) != 9 {
		t.Fatal("reprogram after erase failed")
	}
}

func TestProgramNonErasedPanics(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	c.Program([]ProgramOp{{Addr: PPA{0, 0, 0}, Token: 1}}, nil)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("double program did not panic")
		}
	}()
	c.Program([]ProgramOp{{Addr: PPA{0, 0, 0}, Token: 2}}, nil)
}

func TestInstallPage(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	a := PPA{Plane: 0, Block: 0, Page: 0}
	c.InstallPage(a, 0x11)
	if e.Now() != 0 {
		t.Fatal("install consumed simulated time")
	}
	if c.PageStateAt(a) != PageProgrammed || c.ContentAt(a) != 0x11 {
		t.Fatal("install did not program the page")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double install did not panic")
		}
	}()
	c.InstallPage(a, 0x22)
}

func TestReadUnprogrammedPanics(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	defer func() {
		if recover() == nil {
			t.Fatal("read of erased page did not panic")
		}
	}()
	c.Read([]PPA{{0, 0, 0}}, nil)
}

func TestMultiPlaneDuplicatePlanePanics(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate plane did not panic")
		}
	}()
	c.Program([]ProgramOp{
		{Addr: PPA{1, 0, 0}, Token: 1},
		{Addr: PPA{1, 1, 0}, Token: 2},
	}, nil)
}

func TestVPageLifecycle(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	if c.VPagesHeld() != 0 {
		t.Fatal("fresh chip has no free V-page registers")
	}
	r0 := c.AcquireVPage()
	r1 := c.AcquireVPage()
	if r0 != 0 || r1 != 1 {
		t.Fatalf("acquired %d, %d", r0, r1)
	}
	if c.VPagesHeld() != NumVPageRegisters || c.AcquireVPage() != -1 {
		t.Fatal("exhausted V-page registers still acquirable")
	}
	c.SetVPage(r0, 0xCAFE)
	if c.vpage[r0] != 0xCAFE {
		t.Fatal("V-page content lost")
	}
	// Commit r0 into the array: register frees on completion.
	c.ProgramFromVPage(r0, PPA{0, 4, 0}, nil)
	e.Run()
	if c.ContentAt(PPA{0, 4, 0}) != 0xCAFE {
		t.Fatal("VCommit did not program token")
	}
	if c.VPagesHeld() != 1 {
		t.Fatal("V-page register not freed after commit")
	}
	c.ReleaseVPage(r1)
	if c.AcquireVPage() == -1 {
		t.Fatal("released register not reusable")
	}
}

// Copies that find both V-page registers held queue on the chip and are
// served in arrival order, each the instant a register frees — by a
// commit completing or by an abort — with both registers held until the
// queue drains.
func TestWaitVPageFIFO(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	r0 := c.AcquireVPage()
	r1 := c.AcquireVPage()
	var served []int
	var regs []int
	slots := make([]int, 3)
	for i := range slots {
		c.WaitVPage(&slots[i], func() {
			served = append(served, i)
			regs = append(regs, slots[i])
		})
	}
	if len(served) != 0 || c.VPagesHeld() != NumVPageRegisters {
		t.Fatalf("waiters served %v on a full chip, %d held", served, c.VPagesHeld())
	}
	c.SetVPage(r0, 0xAB)
	c.ProgramFromVPage(r0, PPA{0, 2, 0}, nil)
	e.Run()
	if len(served) != 1 || served[0] != 0 || regs[0] != r0 {
		t.Fatalf("after commit served %v regs %v, want waiter 0 on register %d", served, regs, r0)
	}
	if e.Now() != c.timing.Program {
		t.Fatalf("waiter served at %v, want at commit completion %v", e.Now(), c.timing.Program)
	}
	if c.VPagesHeld() != NumVPageRegisters {
		t.Fatalf("%d registers held with waiters queued", c.VPagesHeld())
	}
	c.ReleaseVPage(r1)
	if len(served) != 2 || served[1] != 1 || regs[1] != r1 {
		t.Fatalf("after release served %v regs %v, want waiter 1 on register %d", served, regs, r1)
	}
	if c.VPagesHeld() != NumVPageRegisters {
		t.Fatalf("%d registers held with a waiter queued", c.VPagesHeld())
	}
	c.ReleaseVPage(regs[0])
	if len(served) != 3 || served[2] != 2 {
		t.Fatalf("served %v, want arrival order 0,1,2", served)
	}
	c.ReleaseVPage(regs[1])
	c.ReleaseVPage(regs[2])
	if c.VPagesHeld() != 0 {
		t.Fatalf("%d registers held after the queue drained", c.VPagesHeld())
	}
	got, claimed := -1, false
	c.WaitVPage(&got, func() { claimed = true })
	if got < 0 || !claimed {
		t.Fatal("WaitVPage on a free chip did not claim at once")
	}
}

func TestVPageMisusePanics(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	for _, fn := range []func(){
		func() { c.SetVPage(0, 1) },                         // unclaimed store
		func() { c.ReleaseVPage(0) },                        // unclaimed release
		func() { c.ProgramFromVPage(1, PPA{0, 0, 0}, nil) }, // empty commit
		func() { c.SetVPage(9, 1) },                         // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("V-page misuse did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestChipBusyDuringOp(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	c.Program([]ProgramOp{{Addr: PPA{0, 0, 0}, Token: 1}}, nil)
	e.RunUntil(10 * sim.Microsecond)
	if !c.Busy() {
		t.Fatal("chip idle mid-program")
	}
	e.Run()
	if c.Busy() {
		t.Fatal("chip busy after program completed")
	}
}

// Property: programming pages in order with arbitrary tokens, every token
// reads back; erase clears everything.
func TestProgramEraseProperty(t *testing.T) {
	prop := func(tokens []uint64) bool {
		if len(tokens) > 16 {
			tokens = tokens[:16]
		}
		e := sim.NewEngine()
		c := newTestChip(e)
		for i, tok := range tokens {
			c.Program([]ProgramOp{{Addr: PPA{0, 0, i}, Token: Token(tok)}}, nil)
		}
		e.Run()
		for i, tok := range tokens {
			if c.ContentAt(PPA{0, 0, i}) != Token(tok) {
				return false
			}
		}
		c.Erase([]PPA{{Plane: 0, Block: 0}}, nil)
		e.Run()
		for i := range tokens {
			if c.PageStateAt(PPA{0, 0, i}) != PageErased {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReadRecordReusedFromItsOwnCallback drives a chain of reads in
// which each completion at once issues the next read on the same chip,
// so the next read takes the record the finishing read just released,
// while a second read waits on the die behind it. Every read must still
// land its own tokens in the page registers and take exactly tR.
func TestReadRecordReusedFromItsOwnCallback(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	tok := func(plane, page int) Token { return Token(0x100*plane + page + 1) }
	for plane := 0; plane < 4; plane++ {
		for page := 0; page < 4; page++ {
			c.Program([]ProgramOp{{Addr: PPA{Plane: plane, Block: 0, Page: page}, Token: tok(plane, page)}}, nil)
		}
	}
	e.Run()

	const chain = 4
	var chained, queued int
	var next func()
	next = func() {
		if chained > 0 {
			for _, plane := range []int{chained % 4, (chained + 1) % 4} {
				if got, want := c.PageRegister(plane), tok(plane, chained-1); got != want {
					t.Fatalf("read %d: plane %d register = %x, want %x", chained, plane, got, want)
				}
			}
		}
		if chained == chain {
			return
		}
		chained++
		page := chained - 1
		c.Read([]PPA{{Plane: chained % 4, Block: 0, Page: page}, {Plane: (chained + 1) % 4, Block: 0, Page: page}}, next)
		if chained == 1 {
			// A second read queues on the die behind the first, holding
			// its own record while the chain recycles the other.
			c.Read([]PPA{{Plane: 3, Block: 0, Page: 3}}, func() {
				queued++
				if got := c.PageRegister(3); got != tok(3, 3) {
					t.Fatalf("queued read: plane 3 register = %x, want %x", got, tok(3, 3))
				}
			})
		}
	}
	start := e.Now()
	next()
	e.Run()
	if chained != chain || queued != 1 {
		t.Fatalf("chained %d of %d reads, queued read completed %d times", chained, chain, queued)
	}
	if got, want := e.Now()-start, (chain+1)*c.timing.Read; got != want {
		t.Fatalf("reads took %v, want %v (one tR each, serialized on the die)", got, want)
	}
	if r, _, _ := c.Counters(); r != chain+1 {
		t.Fatalf("reads = %d, want %d", r, chain+1)
	}
}

// TestArrayOpQueue queues programs, a read and erases deep on one die,
// with completions that issue the next operation while the finishing
// one's entries leave the queues. Every operation must finish in issue
// order and apply its own targets, and once the queues have grown, a
// whole round must allocate nothing.
func TestArrayOpQueue(t *testing.T) {
	e := sim.NewEngine()
	c := newTestChip(e)
	tok := func(plane, page int) Token { return Token(0x100*plane + page + 1) }
	var order []int
	var progs [4][]ProgramOp
	for i := range progs {
		progs[i] = []ProgramOp{{Addr: PPA{Plane: 0, Page: i}, Token: tok(0, i)}, {Addr: PPA{Plane: 1, Page: i}, Token: tok(1, i)}}
	}
	done := make([]func(), 7)
	for i := range done {
		done[i] = func() { order = append(order, i) }
	}
	read := []PPA{{Plane: 1, Page: 3}}
	readDone := func() {
		if got := c.PageRegister(1); got != tok(1, 3) {
			t.Fatalf("read queued behind the programs: register %x, want %x", got, tok(1, 3))
		}
	}
	erase01 := []PPA{{Plane: 0}, {Plane: 1}}
	erase2 := []PPA{{Plane: 2}}
	commit := []ProgramOp{{Addr: PPA{Plane: 2}, Token: tok(2, 0)}}
	afterCommit := func() {
		done[5]()
		if got := c.ContentAt(PPA{Plane: 2}); got != tok(2, 0) {
			t.Fatalf("program issued from a completion: content %x, want %x", got, tok(2, 0))
		}
		c.Erase(erase2, done[6])
	}
	afterErase := func() {
		done[4]()
		for plane := 0; plane < 2; plane++ {
			for page := 0; page < 4; page++ {
				if c.PageStateAt(PPA{Plane: plane, Page: page}) != PageErased {
					t.Fatalf("plane %d page %d not erased", plane, page)
				}
			}
		}
		c.Program(commit, afterCommit)
	}
	round := func() {
		order = order[:0]
		for i := range progs {
			c.Program(progs[i], done[i])
		}
		c.Read(read, readDone)
		c.Erase(erase01, afterErase)
		e.Run()
	}
	round()
	for i, got := range order {
		if got != i {
			t.Fatalf("finish order %v, want 0..6", order)
		}
	}
	if len(order) != 7 || c.EraseCount(0, 0) != 1 || c.EraseCount(2, 0) != 1 {
		t.Fatalf("finish order %v, erase counts %d and %d, want 7 ops and 1 erase each", order, c.EraseCount(0, 0), c.EraseCount(2, 0))
	}
	if n := testing.AllocsPerRun(10, round); n != 0 {
		t.Fatalf("a round on grown queues allocates %v objects, want 0", n)
	}
}
