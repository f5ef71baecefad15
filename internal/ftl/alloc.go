package ftl

import (
	"errors"
	"fmt"

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

// freeLedger is the device-wide record of the free pools, shared by
// every planeState of one FTL through a pointer. After newPlaneState,
// popFree, pushFree and removeFree are the only writers of a plane's
// free pool, and each keeps freeBlocks exact and bumps epoch.
type freeLedger struct {
	freeBlocks int // erased blocks across every plane
	// epoch counts allocation-state changes that can widen host write
	// admission: every free-pool change, and the end of a GC round
	// (finishGC). The host-admission memo is valid while it holds still.
	epoch uint64
}

// planeState manages block allocation within one (chip, plane). Host
// writes and GC copies fill separate active blocks so a collection round
// consumes free blocks at the rate it erases them instead of opening a
// fresh block in every plane it scatters copies into.
type planeState struct {
	pagesPerBlock int
	free          []int // erased block indices, LIFO
	ledger        *freeLedger
	active        int // block currently filled by host writes, -1 if none
	nextPage      int
	gcActive      int // block currently filled by GC copies, -1 if none
	gcNextPage    int
	blocks        []blockInfo
}

// newPlaneState builds a plane whose blocks are all erased and adds them
// to the shared ledger.
func newPlaneState(blocks, pagesPerBlock int, ledger *freeLedger) *planeState {
	ps := &planeState{pagesPerBlock: pagesPerBlock, ledger: ledger, active: -1, gcActive: -1, blocks: make([]blockInfo, blocks)}
	// Reverse order so block 0 is popped first, which keeps layouts easy
	// to reason about in tests.
	for b := blocks - 1; b >= 0; b-- {
		ps.free = append(ps.free, b)
	}
	ledger.freeBlocks += blocks
	ledger.epoch++
	return ps
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
	ps.ledger.freeBlocks--
	ps.ledger.epoch++
	return b, true
}

// pushFree returns an erased block to the free pool.
func (ps *planeState) pushFree(b int) {
	ps.free = append(ps.free, b)
	ps.ledger.freeBlocks++
	ps.ledger.epoch++
}

// removeFree pulls a block out of the free pool if it is there.
func (ps *planeState) removeFree(b int) {
	for i, fb := range ps.free {
		if fb == b {
			ps.free = append(ps.free[:i], ps.free[i+1:]...)
			ps.ledger.freeBlocks--
			ps.ledger.epoch++
			return
		}
	}
}

// hasSpace reports whether at least one more page can be allocated.
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
	}
	block, page = ps.active, ps.nextPage
	ps.nextPage++
	if ps.nextPage == ps.pagesPerBlock {
		ps.blocks[ps.active].state = BlockFull
		ps.active = -1
	}
	return block, page, nil
}

// hasGCSpace reports whether a GC copy destination can be allocated
// without stealing the host's open block.
func (ps *planeState) hasGCSpace() bool { return ps.gcActive >= 0 || len(ps.free) > 0 }

// gcOpen reports whether a GC destination block is already open, which
// the destination chooser prefers so copies stream into few blocks.
func (ps *planeState) gcOpen() bool { return ps.gcActive >= 0 }

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
	}
	block, page = ps.gcActive, ps.gcNextPage
	ps.gcNextPage++
	if ps.gcNextPage == ps.pagesPerBlock {
		ps.blocks[ps.gcActive].state = BlockFull
		ps.gcActive = -1
	}
	return block, page, nil
}

// slot is one (chip, plane) allocation target.
type slot struct {
	chip  controller.ChipID
	plane int
}

// allocator walks (plane, channel, way) space in policy order, skipping
// slots the supplied filter rejects and slots with no space.
type allocator struct {
	slots  []slot // one policy cycle: slots[n] is the n-th slot visited
	cursor int    // index into slots of the next slot to try
}

// newAllocator lays out one cycle of the policy order by decomposing each
// linear index into (plane, channel, way), first dimension fastest.
func newAllocator(policy AllocPolicy, channels, ways, planes int) *allocator {
	var size [3]int // indexed by Dim
	size[DimPlane], size[DimChannel], size[DimWay] = planes, channels, ways
	a := &allocator{slots: make([]slot, channels*ways*planes)}
	for i := range a.slots {
		n := i
		var coord [3]int // indexed by Dim
		for _, d := range policy.Order {
			coord[d] = n % size[d]
			n /= size[d]
		}
		a.slots[i] = slot{chip: controller.ChipID{Channel: coord[DimChannel], Way: coord[DimWay]}, plane: coord[DimPlane]}
	}
	return a
}

// next returns the next allocatable slot accepted by ok, advancing the
// cursor, or false when no slot qualifies. A failed call visits every
// slot once and leaves the cursor where it started.
func (a *allocator) next(ok func(s slot) bool) (slot, bool) {
	for range a.slots {
		s := a.slots[a.cursor]
		a.cursor++
		if a.cursor == len(a.slots) {
			a.cursor = 0
		}
		if ok(s) {
			return s, true
		}
	}
	return slot{}, false
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
