package ftl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/controller"
	"repro/internal/flash"
)

// allSlots returns a set holding every slot of a.
func allSlots(a *allocator) slotBits {
	b := newSlotBits(len(a.slots))
	for i := range a.slots {
		b.set(i)
	}
	return b
}

func TestAllocatorCoversEverySlotOncePerCycle(t *testing.T) {
	for _, policy := range []AllocPolicy{PCWD, PWCD} {
		a := newAllocator(policy, 4, 3, 2)
		all := allSlots(a)
		seen := make(map[slot]int)
		for range a.slots {
			s, ok := a.nextSet(all, nil, nil)
			if !ok {
				t.Fatalf("%v: allocator refused with universal filter", policy)
			}
			seen[s]++
		}
		if len(seen) != len(a.slots) {
			t.Fatalf("%v: %d distinct slots in one cycle, want %d", policy, len(seen), len(a.slots))
		}
		for s, n := range seen {
			if n != 1 {
				t.Fatalf("%v: slot %v visited %d times in one cycle", policy, s, n)
			}
		}
	}
}

func TestAllocatorPolicyOrder(t *testing.T) {
	// PCWD: plane varies fastest, then channel, then way.
	a := newAllocator(PCWD, 2, 2, 2)
	want := []slot{
		{controller.ChipID{Channel: 0, Way: 0}, 0},
		{controller.ChipID{Channel: 0, Way: 0}, 1},
		{controller.ChipID{Channel: 1, Way: 0}, 0},
		{controller.ChipID{Channel: 1, Way: 0}, 1},
		{controller.ChipID{Channel: 0, Way: 1}, 0},
		{controller.ChipID{Channel: 0, Way: 1}, 1},
		{controller.ChipID{Channel: 1, Way: 1}, 0},
		{controller.ChipID{Channel: 1, Way: 1}, 1},
	}
	for i, w := range want {
		s, ok := a.nextSet(allSlots(a), nil, nil)
		if !ok || s != w {
			t.Fatalf("PCWD step %d = %v, want %v", i, s, w)
		}
	}
	// PWCD: plane, then way, then channel.
	b := newAllocator(PWCD, 2, 2, 2)
	wantB := []slot{
		{controller.ChipID{Channel: 0, Way: 0}, 0},
		{controller.ChipID{Channel: 0, Way: 0}, 1},
		{controller.ChipID{Channel: 0, Way: 1}, 0},
		{controller.ChipID{Channel: 0, Way: 1}, 1},
		{controller.ChipID{Channel: 1, Way: 0}, 0},
	}
	for i, w := range wantB {
		s, ok := b.nextSet(allSlots(b), nil, nil)
		if !ok || s != w {
			t.Fatalf("PWCD step %d = %v, want %v", i, s, w)
		}
	}
}

func TestAllocatorFilterSkips(t *testing.T) {
	a := newAllocator(PCWD, 2, 2, 1)
	// Mask out way 1 entirely: only two slots remain.
	got := make(map[slot]bool)
	for i := 0; i < 4; i++ {
		s, ok := a.nextSet(allSlots(a), nil, a.way[0])
		if !ok {
			t.Fatal("allocator refused despite acceptable slots")
		}
		if s.chip.Way != 0 {
			t.Fatalf("filter violated: %v", s)
		}
		got[s] = true
	}
	if len(got) != 2 {
		t.Fatalf("distinct way-0 slots = %d, want 2", len(got))
	}
	// Reject everything: must return false, not loop forever.
	if _, ok := a.nextSet(newSlotBits(len(a.slots)), nil, nil); ok {
		t.Fatal("allocator satisfied an unsatisfiable filter")
	}
}

// refSlot is the reference decomposition the slot table must match: the
// policy's first dimension is the least significant digit of a mixed-radix
// number, read off by repeated division.
func refSlot(order [3]Dim, channels, ways, planes, n int) slot {
	var ch, w, pl int
	for _, d := range order {
		switch d {
		case DimPlane:
			pl, n = n%planes, n/planes
		case DimChannel:
			ch, n = n%channels, n/channels
		case DimWay:
			w, n = n%ways, n/ways
		}
	}
	return slot{chip: controller.ChipID{Channel: ch, Way: w}, plane: pl}
}

// randBits returns a random set over n slots: nil (an absent y or m)
// about one call in five, all zeros one in seven, and otherwise a dense
// set of about half the slots or a sparse one of about one in twelve.
func randBits(rng *rand.Rand, n int) slotBits {
	r := rng.Intn(35)
	if r < 7 {
		return nil
	}
	b := newSlotBits(n)
	if r < 12 {
		return b
	}
	for i := 0; i < n; i++ {
		if (r < 24 && rng.Intn(2) == 0) || (r >= 24 && rng.Intn(12) == 0) {
			b.set(i)
		}
	}
	return b
}

// The precomputed slot table equals the div/mod decomposition for every
// ordering of the three dimensions, and nextSet returns exactly what a
// walk of the table from the cursor, testing each slot for (x|y)&m,
// returns, and moves the cursor as that walk does: past the slot found,
// or nowhere when no slot qualifies. atCursor agrees with it whenever
// the walk stops at once. The geometries fill one word, four full words,
// and end mid-word.
func TestAllocatorSlotTableMatchesReference(t *testing.T) {
	orders := [][3]Dim{
		{DimPlane, DimChannel, DimWay}, {DimPlane, DimWay, DimChannel},
		{DimChannel, DimPlane, DimWay}, {DimChannel, DimWay, DimPlane},
		{DimWay, DimPlane, DimChannel}, {DimWay, DimChannel, DimPlane},
	}
	geos := [][3]int{{3, 5, 2}, {8, 8, 4}, {5, 7, 3}} // channels, ways, planes
	rng := rand.New(rand.NewSource(1))
	for _, order := range orders {
		for _, g := range geos {
			channels, ways, planes := g[0], g[1], g[2]
			a := newAllocator(AllocPolicy{Order: order}, channels, ways, planes)
			total := channels * ways * planes
			if len(a.slots) != total {
				t.Fatalf("%v %v: table has %d slots, want %d", order, g, len(a.slots), total)
			}
			for n, s := range a.slots {
				if want := refSlot(order, channels, ways, planes, n); s != want {
					t.Fatalf("%v %v: slots[%d] = %v, want %v", order, g, n, s, want)
				}
			}
			cursors := []int{0, 63, 64, total - 1}
			failed := 0
			for call := 0; call < 40*total; call++ {
				cur := rng.Intn(total)
				if call < 4*len(cursors) {
					cur = cursors[call%len(cursors)] % total
				}
				x := randBits(rng, total)
				if x == nil {
					x = newSlotBits(total)
				}
				y, m := randBits(rng, total), randBits(rng, total)
				in := func(i int) bool {
					return (x.has(i) || (y != nil && y.has(i))) && (m == nil || m.has(i))
				}
				want, wantOK, wantCursor := slot{}, false, cur
				for k := 0; k < total; k++ {
					if i := (cur + k) % total; in(i) {
						want, wantOK, wantCursor = refSlot(order, channels, ways, planes, i), true, (i+1)%total
						break
					}
				}
				if y != nil && m == nil {
					// atCursor answers exactly when the cursor's slot qualifies.
					a.cursor = cur
					got, ok := a.atCursor(x, y)
					hit := wantOK && wantCursor == (cur+1)%total
					if ok != hit || (ok && (got != want || a.cursor != wantCursor)) || (!ok && a.cursor != cur) {
						t.Fatalf("%v %v call %d from cursor %d: atCursor = %v,%v cursor %d, want %v,%v cursor %d",
							order, g, call, cur, got, ok, a.cursor, want, hit, wantCursor)
					}
				}
				a.cursor = cur
				got, ok := a.nextSet(x, y, m)
				if got != want || ok != wantOK || a.cursor != wantCursor {
					t.Fatalf("%v %v call %d from cursor %d: nextSet = %v,%v cursor %d, want %v,%v cursor %d",
						order, g, call, cur, got, ok, a.cursor, want, wantOK, wantCursor)
				}
				if !ok {
					failed++
				}
			}
			if failed == 0 {
				t.Fatalf("%v %v: no search failed", order, g)
			}
		}
	}
}

// Property: physIndex/physDecode are inverse for arbitrary geometry-valid
// locations.
func TestPhysIndexRoundTripProperty(t *testing.T) {
	geo := flash.Geometry{Planes: 4, BlocksPerPlane: 16, PagesPerBlock: 32, PageSize: 4096}
	const ways = 8
	prop := func(ch, w, pl, b, pg uint16) bool {
		id := controller.ChipID{Channel: int(ch % 8), Way: int(w % ways)}
		addr := flash.PPA{
			Plane: int(pl) % geo.Planes,
			Block: int(b) % geo.BlocksPerPlane,
			Page:  int(pg) % geo.PagesPerBlock,
		}
		gotID, gotAddr := physDecode(geo, ways, physIndex(geo, ways, id, addr))
		return gotID == id && gotAddr == addr
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: physIndex is injective over a full small device.
func TestPhysIndexInjective(t *testing.T) {
	geo := flash.Geometry{Planes: 2, BlocksPerPlane: 3, PagesPerBlock: 4, PageSize: 4096}
	const channels, ways = 2, 3
	seen := make(map[int64]bool)
	for ch := 0; ch < channels; ch++ {
		for w := 0; w < ways; w++ {
			for pl := 0; pl < geo.Planes; pl++ {
				for b := 0; b < geo.BlocksPerPlane; b++ {
					for pg := 0; pg < geo.PagesPerBlock; pg++ {
						phys := physIndex(geo, ways, controller.ChipID{Channel: ch, Way: w},
							flash.PPA{Plane: pl, Block: b, Page: pg})
						if seen[phys] {
							t.Fatalf("phys %d duplicated", phys)
						}
						seen[phys] = true
					}
				}
			}
		}
	}
	want := channels * ways * geo.PagesPerChip()
	if len(seen) != want {
		t.Fatalf("covered %d phys ids, want %d", len(seen), want)
	}
}

func TestPlaneStateGCAndHostStreamsIndependent(t *testing.T) {
	a := newAllocator(PCWD, 1, 1, 1)
	planes, _, _ := newPlanes(a, 1, flash.Geometry{Planes: 1, BlocksPerPlane: 4, PagesPerBlock: 4, PageSize: 4096})
	ps := &planes[0]
	hb, _, _ := ps.allocate()
	gb, _, _ := ps.allocateGC()
	if hb == gb {
		t.Fatal("host and GC streams share a block")
	}
	// Fill the host block; the GC block must be untouched.
	for i := 1; i < 4; i++ {
		b, p, err := ps.allocate()
		if err != nil {
			t.Fatalf("host allocation %d failed: %v", i, err)
		}
		if b != hb || p != i {
			t.Fatalf("host allocation %d = (%d,%d)", i, b, p)
		}
	}
	if ps.blocks[hb].state != BlockFull {
		t.Fatal("host block not full after 4 pages")
	}
	if ps.blocks[gb].state != BlockActive || !a.gcOpen.has(0) || a.open.has(0) {
		t.Fatal("GC block state disturbed by host stream")
	}
	// GC stream continues from page 1.
	if b, p, _ := ps.allocateGC(); b != gb || p != 1 {
		t.Fatalf("GC allocation = (%d,%d), want (%d,1)", b, p, gb)
	}
}
