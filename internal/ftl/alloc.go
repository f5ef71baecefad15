package ftl

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/controller"
	"repro/internal/flash"
)

// ErrNoFreeBlock reports that a plane has no erased block to open. It is
// a recoverable condition, not an invariant violation: under injected
// program/erase failures the free pool shrinks as blocks retire, and
// callers stall or retry rather than crash.
var ErrNoFreeBlock = errors.New("ftl: no free block in plane")

// Dim is one striping dimension of the page allocation policy.
type Dim int

// Striping dimensions. The paper's configurations have one die per chip,
// so the D in PCWD/PWCD is degenerate and omitted here.
const (
	DimPlane Dim = iota
	DimChannel
	DimWay
)

// AllocPolicy orders the striping dimensions from fastest-varying to
// slowest. Consecutively written pages advance along the first dimension
// first.
type AllocPolicy struct {
	Order [3]Dim
	name  string
}

// PCWD is the plane-channel-way-die policy of Fig 16: a 4-page request
// fills one chip's planes (a multi-plane program) and consecutive requests
// stripe across channels, balancing channel load.
var PCWD = AllocPolicy{Order: [3]Dim{DimPlane, DimChannel, DimWay}, name: "PCWD"}

// PWCD is the plane-way-channel-die policy of Fig 17: consecutive requests
// stripe across the ways of one channel before moving to the next channel,
// concentrating load and creating the imbalance the paper uses to show off
// path diversity.
var PWCD = AllocPolicy{Order: [3]Dim{DimPlane, DimWay, DimChannel}, name: "PWCD"}

// String returns the policy mnemonic.
func (p AllocPolicy) String() string {
	if p.name != "" {
		return p.name
	}
	return fmt.Sprintf("policy%v", p.Order)
}

// BlockState is the lifecycle of one block as the FTL sees it.
type BlockState uint8

// Block states.
const (
	BlockFree BlockState = iota
	BlockActive
	BlockFull
	BlockErasing
	// BlockRetired is terminal: the block failed a program or erase and
	// left service. It is never erased, freed, or allocated again.
	BlockRetired
)

// blockInfo is the FTL's bookkeeping for one physical block.
type blockInfo struct {
	state      BlockState
	validCount int32
	inflight   int32 // writes issued but not yet completed
	readRefs   int32 // host reads issued but not yet completed; gates erase
	// bad marks a block that failed a program or erase. Valid pages on a
	// bad block remain readable and are migrated off by GC, after which
	// the block transitions to BlockRetired instead of returning to the
	// free pool.
	bad bool
	// lastWrite is the time of the most recent program into this block,
	// the age signal cost-benefit victim selection uses.
	lastWrite int64
	// mapOwned marks a block carved out for the fmmu map unit's
	// translation pages: host GC never selects it (the map unit runs its
	// own cleaner) and its pages never enter p2l.
	mapOwned bool
}

// planeState manages block allocation within one (chip, plane). Host
// writes and GC copies fill separate active blocks so a collection round
// consumes free blocks at the rate it erases them instead of opening a
// fresh block in every plane it scatters copies into.
//
// After newPlanes, popFree, pushFree and removeFree are the only
// writers of the free pool, and allocate, allocateGC and
// FTL.retireBlock the only writers of active and gcActive. Each keeps
// the allocator's device-wide free count and this plane's slot bits
// exact.
type planeState struct {
	pagesPerBlock int
	free          []int      // erased block indices, LIFO
	alloc         *allocator // shared free count and slot bits
	slot          int        // this plane's index in alloc.slots
	active        int        // block currently filled by host writes, -1 if none
	nextPage      int
	gcActive      int // block currently filled by GC copies, -1 if none
	gcNextPage    int
	blocks        []blockInfo
}

// newPlanes builds one planeState per slot of a, plane p of chip c at
// index c*Planes+p, with every block erased and counted in a. The
// planes' block records and free lists are windows of the blocks and
// free slabs it returns, each window's capacity its plane's block count,
// so pushFree never reallocates.
func newPlanes(a *allocator, ways int, geo flash.Geometry) (planes []planeState, blocks []blockInfo, free []int) {
	n, bpp := len(a.slots), geo.BlocksPerPlane
	planes = make([]planeState, n)
	blocks = make([]blockInfo, n*bpp)
	free = make([]int, n*bpp)
	formatPlanes(a, ways, geo, planes, blocks, free)
	return planes, blocks, free
}

// formatPlanes puts planes, whose zeroed block records and free lists
// are windows of blocks and free, into newPlanes' state and counts every
// block free in a, whose counts and bits must be zero.
func formatPlanes(a *allocator, ways int, geo flash.Geometry, planes []planeState, blocks []blockInfo, free []int) {
	bpp := geo.BlocksPerPlane
	for i, s := range a.slots {
		k := (s.chip.Channel*ways+s.chip.Way)*geo.Planes + s.plane
		lo, hi := k*bpp, (k+1)*bpp
		fl := free[lo:hi:hi]
		// Reverse order so block 0 is popped first, which keeps layouts
		// easy to reason about in tests.
		for b := range fl {
			fl[b] = bpp - 1 - b
		}
		planes[k] = planeState{pagesPerBlock: geo.PagesPerBlock, free: fl, alloc: a, slot: i, active: -1, gcActive: -1, blocks: blocks[lo:hi:hi]}
		a.freeBlocks += bpp
		a.free.set(i)
	}
}

// popFree takes the most recently erased block out of the free pool, or
// reports false when the pool is empty.
func (ps *planeState) popFree() (int, bool) {
	n := len(ps.free)
	if n == 0 {
		return 0, false
	}
	b := ps.free[n-1]
	ps.free = ps.free[:n-1]
	ps.alloc.freeBlocks--
	if n == 1 {
		ps.alloc.free.clear(ps.slot)
	}
	return b, true
}

// pushFree returns an erased block to the free pool.
func (ps *planeState) pushFree(b int) {
	ps.free = append(ps.free, b)
	ps.alloc.freeBlocks++
	ps.alloc.free.set(ps.slot)
}

// removeFree pulls a block out of the free pool if it is there.
func (ps *planeState) removeFree(b int) {
	for i, fb := range ps.free {
		if fb == b {
			ps.free = append(ps.free[:i], ps.free[i+1:]...)
			ps.alloc.freeBlocks--
			if len(ps.free) == 0 {
				ps.alloc.free.clear(ps.slot)
			}
			return
		}
	}
}

// hasSpace reports whether at least one more page can be allocated.
// CheckConsistency's host-admission oracle uses it.
func (ps *planeState) hasSpace() bool { return ps.active >= 0 || len(ps.free) > 0 }

// allocate returns the next (block, page) in sequence. Allocating on a
// full plane returns ErrNoFreeBlock — recoverable, because injected
// faults can retire blocks between a caller's space check and the
// allocation itself.
func (ps *planeState) allocate() (block, page int, err error) {
	if ps.active < 0 {
		b, ok := ps.popFree()
		if !ok {
			return 0, 0, ErrNoFreeBlock
		}
		ps.active = b
		ps.nextPage = 0
		ps.blocks[ps.active].state = BlockActive
		ps.alloc.open.set(ps.slot)
	}
	block, page = ps.active, ps.nextPage
	ps.nextPage++
	if ps.nextPage == ps.pagesPerBlock {
		ps.blocks[ps.active].state = BlockFull
		ps.active = -1
		ps.alloc.open.clear(ps.slot)
	}
	return block, page, nil
}

// allocateGC returns the next (block, page) of the plane's GC stream, or
// ErrNoFreeBlock when no erased block remains to open.
func (ps *planeState) allocateGC() (block, page int, err error) {
	if ps.gcActive < 0 {
		b, ok := ps.popFree()
		if !ok {
			return 0, 0, ErrNoFreeBlock
		}
		ps.gcActive = b
		ps.gcNextPage = 0
		ps.blocks[ps.gcActive].state = BlockActive
		ps.alloc.gcOpen.set(ps.slot)
	}
	block, page = ps.gcActive, ps.gcNextPage
	ps.gcNextPage++
	if ps.gcNextPage == ps.pagesPerBlock {
		ps.blocks[ps.gcActive].state = BlockFull
		ps.gcActive = -1
		ps.alloc.gcOpen.clear(ps.slot)
	}
	return block, page, nil
}

// slot is one (chip, plane) allocation target.
type slot struct {
	chip  controller.ChipID
	plane int
}

// slotBits is a set of slot indices, bit i standing for slots[i].
type slotBits []uint64

func newSlotBits(n int) slotBits  { return make(slotBits, (n+63)/64) }
func (b slotBits) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b slotBits) clear(i int)    { b[i>>6] &^= 1 << (i & 63) }
func (b slotBits) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// allocator walks (plane, channel, way) space in policy order from a
// cursor. It keeps one bitset per plane-state predicate over the slot
// indices, so every placement is one find-next-set-bit search.
type allocator struct {
	slots  []slot // one policy cycle: slots[n] is the n-th slot visited
	cursor int    // index into slots of the next slot to try

	freeBlocks int // erased blocks across every plane

	open   slotBits // the plane has a host block open
	gcOpen slotBits // the plane has a GC block open
	free   slotBits // the plane's free pool is non-empty

	way []slotBits // way[w]: the slots on way w
}

// newAllocator lays out one cycle of the policy order by decomposing each
// linear index into (plane, channel, way), first dimension fastest.
func newAllocator(policy AllocPolicy, channels, ways, planes int) *allocator {
	var size [3]int // indexed by Dim
	size[DimPlane], size[DimChannel], size[DimWay] = planes, channels, ways
	n := channels * ways * planes
	a := &allocator{slots: make([]slot, n), open: newSlotBits(n), gcOpen: newSlotBits(n), free: newSlotBits(n)}
	for i := range a.slots {
		n := i
		var coord [3]int // indexed by Dim
		for _, d := range policy.Order {
			coord[d] = n % size[d]
			n /= size[d]
		}
		a.slots[i] = slot{chip: controller.ChipID{Channel: coord[DimChannel], Way: coord[DimWay]}, plane: coord[DimPlane]}
	}
	a.way = make([]slotBits, ways)
	for w := range a.way {
		a.way[w] = a.waysMask(w, w+1)
	}
	return a
}

// waysMask returns the slots whose way lies in [lo, hi).
func (a *allocator) waysMask(lo, hi int) slotBits {
	m := newSlotBits(len(a.slots))
	for i, s := range a.slots {
		if s.chip.Way >= lo && s.chip.Way < hi {
			m.set(i)
		}
	}
	return m
}

// nextSet returns the first slot at or after the cursor, wrapping past
// the end, whose bit is set in (x | y) & m, and moves the cursor to the
// slot after it. A nil y adds nothing and a nil m masks nothing. A
// failed search leaves the cursor where it was. This is the slot a walk
// of the table from the cursor, testing each slot, would return.
func (a *allocator) nextSet(x, y, m slotBits) (slot, bool) {
	c := a.cursor
	w := c >> 6
	v := word(x, y, m, w) >> (c & 63) << (c & 63) // bits at or after the cursor
	// Then the words after the cursor's, wrapping, and last its own word
	// again, whose bits at or after the cursor are known to be clear.
	for k := 0; v == 0; k++ {
		if k == len(x) {
			return slot{}, false
		}
		if w++; w == len(x) {
			w = 0
		}
		v = word(x, y, m, w)
	}
	i := w<<6 + bits.TrailingZeros64(v)
	if a.cursor = i + 1; a.cursor == len(a.slots) {
		a.cursor = 0
	}
	return a.slots[i], true
}

// atCursor takes the cursor's own slot when its bit is set in x | y,
// which is then the slot nextSet(x, y, nil) returns, and moves the
// cursor past it; otherwise it changes nothing. Unlike nextSet it
// inlines, so Install, whose cursor slot nearly always qualifies, pays
// for a call only when it does not.
func (a *allocator) atCursor(x, y slotBits) (slot, bool) {
	c := a.cursor
	if (x[c>>6]|y[c>>6])>>(c&63)&1 == 0 {
		return slot{}, false
	}
	if a.cursor++; a.cursor == len(a.slots) {
		a.cursor = 0
	}
	return a.slots[c], true
}

// word returns word w of (x | y) & m.
func word(x, y, m slotBits, w int) uint64 {
	v := x[w]
	if y != nil {
		v |= y[w]
	}
	if m != nil {
		v &= m[w]
	}
	return v
}

// physIndex linearizes a physical page location for the reverse map.
func physIndex(geo flash.Geometry, ways int, id controller.ChipID, addr flash.PPA) int64 {
	chipIdx := int64(id.Channel)*int64(ways) + int64(id.Way)
	perPlane := int64(geo.BlocksPerPlane) * int64(geo.PagesPerBlock)
	return chipIdx*int64(geo.PagesPerChip()) +
		int64(addr.Plane)*perPlane +
		int64(addr.Block)*int64(geo.PagesPerBlock) +
		int64(addr.Page)
}

// physDecode inverts physIndex.
func physDecode(geo flash.Geometry, ways int, phys int64) (controller.ChipID, flash.PPA) {
	perChip := int64(geo.PagesPerChip())
	chipIdx := phys / perChip
	rem := phys % perChip
	perPlane := int64(geo.BlocksPerPlane) * int64(geo.PagesPerBlock)
	plane := rem / perPlane
	rem %= perPlane
	block := rem / int64(geo.PagesPerBlock)
	page := rem % int64(geo.PagesPerBlock)
	return controller.ChipID{Channel: int(chipIdx) / ways, Way: int(chipIdx) % ways},
		flash.PPA{Plane: int(plane), Block: int(block), Page: int(page)}
}
