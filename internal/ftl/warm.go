package ftl

import (
	"fmt"
	"slices"

	"repro/internal/flash"
)

// WarmKey is what shapes an FTL's state after a warm-up: the chip grid,
// the logical capacity, the allocation policy, and the map unit's
// configuration by value. Install and Reinstall read nothing else (not
// the GC mode, victim policy, GC threshold or group fraction), so two
// FTLs with equal keys that run the same Install/Reinstall sequence end
// in the same state on any fabric. Keys are comparable.
type WarmKey struct {
	channels, ways int
	geo            flash.Geometry
	numLPNs        int64
	policy         AllocPolicy
	mapCfg         MapConfig
	mapped         bool
}

// WarmKey returns f's key.
func (f *FTL) WarmKey() WarmKey {
	k := WarmKey{channels: f.channels, ways: f.ways, geo: f.geo, numLPNs: f.numLPNs, policy: f.cfg.Policy}
	if f.cfg.Map != nil {
		k.mapCfg, k.mapped = *f.cfg.Map, true
	}
	return k
}

// WarmState is a saved copy of an FTL and its chips right after a
// warm-up, with the ordered (lpn, token) stream the warm-up installed.
// SaveWarm makes one; RestoreWarm copies it into a fresh FTL of the same
// key. Each slab is saved and restored with one copy.
type WarmState struct {
	key                WarmKey
	l2p, p2l           []int32
	blocks             []blockInfo // the FTL's slabs
	freeLists          []int
	marks              []planeMark // per plane
	cursor, freeBlocks int
	open, gcOpen, free slotBits
	chips              *flash.ArrayState
	lpns               []int64 // the install stream
	toks               []flash.Token
}

// planeMark is what a planeState holds besides its slab windows.
type planeMark struct {
	free                                   int // free-list length
	active, nextPage, gcActive, gcNextPage int
}

// installLog records the install stream on its way to the sink.
type installLog struct {
	next CheckSink
	lpns []int64
	toks []flash.Token
}

func (l *installLog) PageWritten(lpn int64, tok flash.Token) {
	l.lpns = append(l.lpns, lpn)
	l.toks = append(l.toks, tok)
	if l.next != nil {
		l.next.PageWritten(lpn, tok)
	}
}

// SaveWarm runs fill, which must warm a freshly built f through Install
// and Reinstall alone, and returns a copy of the state it leaves.
func (f *FTL) SaveWarm(fill func()) *WarmState {
	log := &installLog{next: f.sink}
	f.sink = log
	fill()
	f.sink = log.next
	a := f.alloc
	ws := &WarmState{
		key:        f.WarmKey(),
		l2p:        slices.Clone(f.l2p),
		p2l:        slices.Clone(f.p2l),
		blocks:     slices.Clone(f.blocks),
		freeLists:  slices.Clone(f.freeLists),
		marks:      make([]planeMark, len(f.planes)),
		cursor:     a.cursor,
		freeBlocks: a.freeBlocks,
		open:       slices.Clone(a.open),
		gcOpen:     slices.Clone(a.gcOpen),
		free:       slices.Clone(a.free),
		chips:      f.fab.Grid().SaveArray(),
		lpns:       log.lpns,
		toks:       log.toks,
	}
	for i := range f.planes {
		ps := &f.planes[i]
		ws.marks[i] = planeMark{len(ps.free), ps.active, ps.nextPage, ps.gcActive, ps.gcNextPage}
	}
	return ws
}

// RestoreWarm puts a freshly built f, whose key must equal the saving
// FTL's, into the state ws saved. The checker sink and the map unit see
// the saved install stream in order, exactly as during the warm-up
// itself.
func (f *FTL) RestoreWarm(ws *WarmState) {
	if k := f.WarmKey(); k != ws.key {
		panic(fmt.Sprintf("ftl: restore of warm state %+v into %+v", ws.key, k))
	}
	copy(f.l2p, ws.l2p)
	copy(f.p2l, ws.p2l)
	copy(f.blocks, ws.blocks)
	copy(f.freeLists, ws.freeLists)
	for i := range f.planes {
		ps, m := &f.planes[i], ws.marks[i]
		ps.free = ps.free[:m.free]
		ps.active, ps.nextPage, ps.gcActive, ps.gcNextPage = m.active, m.nextPage, m.gcActive, m.gcNextPage
	}
	a := f.alloc
	a.cursor, a.freeBlocks = ws.cursor, ws.freeBlocks
	copy(a.open, ws.open)
	copy(a.gcOpen, ws.gcOpen)
	copy(a.free, ws.free)
	f.fab.Grid().RestoreArray(ws.chips)
	for i, lpn := range ws.lpns {
		if f.sink != nil {
			f.sink.PageWritten(lpn, ws.toks[i])
		}
		if f.mapu != nil {
			f.mapu.warmTouch(lpn)
		}
	}
}
