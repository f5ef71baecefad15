package ftl

import (
	"fmt"
	"slices"

	"repro/internal/controller"
	"repro/internal/flash"
)

// WarmKey is what shapes an FTL's state after a warm-up: the chip grid,
// the logical capacity and the FTL configuration, the map unit's compared
// by value. New sees nothing else, so two FTLs with equal keys that run
// the same Install/Reinstall sequence end in the same state on any
// fabric. Keys are comparable.
type WarmKey struct {
	channels, ways int
	geo            flash.Geometry
	numLPNs        int64
	cfg            Config // Map cleared; see mapCfg
	mapCfg         MapConfig
	mapped         bool
}

// WarmKey returns f's key.
func (f *FTL) WarmKey() WarmKey {
	k := WarmKey{channels: f.channels, ways: f.ways, geo: f.geo, numLPNs: f.numLPNs, cfg: f.cfg}
	if f.cfg.Map != nil {
		k.cfg.Map, k.mapCfg, k.mapped = nil, *f.cfg.Map, true
	}
	return k
}

// WarmState is a saved copy of an FTL and its chips right after a
// warm-up, with the ordered (lpn, token) stream the warm-up installed.
// SaveWarm makes one; RestoreWarm copies it into a fresh FTL of the same
// key.
type WarmState struct {
	key                WarmKey
	l2p, p2l           []int64
	planes             []planeState // free and blocks are copies; alloc is nil
	cursor, freeBlocks int
	open, gcOpen, free slotBits
	chips              []*flash.ArrayState // in Grid.ForEach order
	lpns               []int64             // the install stream
	toks               []flash.Token
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
		planes:     make([]planeState, len(f.planes)),
		cursor:     a.cursor,
		freeBlocks: a.freeBlocks,
		open:       slices.Clone(a.open),
		gcOpen:     slices.Clone(a.gcOpen),
		free:       slices.Clone(a.free),
		lpns:       log.lpns,
		toks:       log.toks,
	}
	for i, ps := range f.planes {
		p := *ps
		p.alloc, p.free, p.blocks = nil, slices.Clone(ps.free), slices.Clone(ps.blocks)
		ws.planes[i] = p
	}
	f.fab.Grid().ForEach(func(_ controller.ChipID, c *flash.Chip) {
		ws.chips = append(ws.chips, c.SaveArray())
	})
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
	for i, ps := range f.planes {
		p := &ws.planes[i]
		ps.free = append(ps.free[:0], p.free...)
		copy(ps.blocks, p.blocks)
		ps.active, ps.nextPage, ps.gcActive, ps.gcNextPage = p.active, p.nextPage, p.gcActive, p.gcNextPage
	}
	a := f.alloc
	a.cursor, a.freeBlocks = ws.cursor, ws.freeBlocks
	copy(a.open, ws.open)
	copy(a.gcOpen, ws.gcOpen)
	copy(a.free, ws.free)
	i := 0
	f.fab.Grid().ForEach(func(_ controller.ChipID, c *flash.Chip) {
		c.RestoreArray(ws.chips[i])
		i++
	})
	for i, lpn := range ws.lpns {
		if f.sink != nil {
			f.sink.PageWritten(lpn, ws.toks[i])
		}
		if f.mapu != nil {
			f.mapu.warmTouch(lpn)
		}
	}
}
