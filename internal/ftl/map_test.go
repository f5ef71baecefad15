package ftl

import (
	"testing"

	"repro/internal/controller"
	"repro/internal/flash"
	"repro/internal/sim"
)

// mapGeo is smallGeo with 64-byte pages: a translation page holds eight
// entries, so the small rig has many translation pages (numLPNs/8)
// instead of one.
func mapGeo() flash.Geometry {
	g := smallGeo()
	g.PageSize = 64
	return g
}

// fmmuCfg returns a no-GC FTL config with the map unit enabled.
func fmmuCfg(entries int) Config {
	c := noGC()
	c.Map = &MapConfig{Entries: entries}
	return c
}

// fmmuRig builds the rig over mapGeo chips with the map unit enabled.
func fmmuRig(entries int, numLPNs int64) (*sim.Engine, *FTL, *controller.Grid) {
	return rigOn(mapGeo(), fmmuCfg(entries), numLPNs)
}

// warmFootprint installs LPNs [0, n) at version 0.
func warmFootprint(f *FTL, n int64) {
	for lpn := int64(0); lpn < n; lpn++ {
		f.Install(lpn, TokenFor(lpn, 0))
	}
}

// readLPN runs one single-page read to completion.
func readLPN(t *testing.T, e *sim.Engine, f *FTL, lpn int64) {
	t.Helper()
	done := false
	f.Read([]int64{lpn}, func() { done = true })
	e.Run()
	if !done {
		t.Fatalf("read of LPN %d never completed", lpn)
	}
}

func TestMapConfigDefaults(t *testing.T) {
	if c := (MapConfig{}).withDefaults(); c.Entries != 64 {
		t.Fatalf("defaults = %+v", c)
	}
	if err := (MapConfig{}).Validate(); err != nil {
		t.Fatalf("the zero MapConfig is invalid: %v", err)
	}
	if err := (MapConfig{Entries: -1}).Validate(); err == nil {
		t.Fatal("negative cache size accepted")
	}
}

func TestMapCarvingAndDirectory(t *testing.T) {
	_, f, g := fmmuRig(4, 256)
	m := f.mapu
	wantT := 256 / 8
	if m.numT != wantT {
		t.Fatalf("numT = %d, want %d", m.numT, wantT)
	}
	wantBlocks := (wantT+mapGeo().PagesPerBlock-1)/mapGeo().PagesPerBlock + 3
	if len(m.blocks) != wantBlocks {
		t.Fatalf("%d map blocks carved, want %d", len(m.blocks), wantBlocks)
	}
	// Every translation page is on flash at version 0, and the carved
	// blocks are invisible to host GC and consistency accounting.
	for tp := 0; tp < m.numT; tp++ {
		tok, ok := f.MapFlashToken(tp)
		if !ok || tok != MapTokenFor(tp, 0) {
			t.Fatalf("t=%d initial flash token %#x ok=%v", tp, tok, ok)
		}
	}
	for _, blk := range m.blocks {
		bi := &f.planeAt(blk.id, blk.plane).blocks[blk.block]
		if !bi.mapOwned || bi.state != BlockFull {
			t.Fatalf("map block %v/%d/%d: mapOwned=%v state=%v", blk.id, blk.plane, blk.block, bi.mapOwned, bi.state)
		}
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	_ = g
}

// TestMapHitMissEvict drives the hit/miss/evict matrix through real
// reads on a 2-entry cache. Sequential warmup leaves the last two
// translation pages resident.
func TestMapHitMissEvict(t *testing.T) {
	t.Run("clock", func(t *testing.T) {
		e, f, _ := fmmuRig(2, 256)
		warmFootprint(f, 256)

		base := f.MapStats()
		readLPN(t, e, f, 40) // t5: absent after warmup -> miss
		s := f.MapStats()
		if s.Misses != base.Misses+1 || s.Fetches != base.Fetches+1 {
			t.Fatalf("cold read: misses %d->%d fetches %d->%d", base.Misses, s.Misses, base.Fetches, s.Fetches)
		}

		readLPN(t, e, f, 41) // same t5 -> hit, no new fetch
		s2 := f.MapStats()
		if s2.Hits != s.Hits+1 || s2.Fetches != s.Fetches {
			t.Fatalf("warm read: hits %d->%d fetches %d->%d", s.Hits, s2.Hits, s.Fetches, s2.Fetches)
		}

		// Two more distinct pages overflow the 2-entry cache; t5 is out
		// after t6 and t7 came in.
		readLPN(t, e, f, 48) // t6
		readLPN(t, e, f, 56) // t7
		s3 := f.MapStats()
		if s3.Evictions <= base.Evictions {
			t.Fatal("overflow produced no evictions")
		}
		readLPN(t, e, f, 40) // t5 again -> must miss
		s4 := f.MapStats()
		if s4.Misses != s3.Misses+1 {
			t.Fatalf("evicted page did not miss: misses %d->%d", s3.Misses, s4.Misses)
		}
		if err := f.MapIdle(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMapEvictPolicyChoice pins CLOCK's victim: with the reference bit
// of one entry cleared, CLOCK takes it regardless of recency.
func TestMapEvictPolicyChoice(t *testing.T) {
	_, f, _ := fmmuRig(3, 256)
	clk := f.mapu
	// Make t0, t1, t2 resident (clean), in that order.
	clk.warmTouch(0)  // t0
	clk.warmTouch(8)  // t1
	clk.warmTouch(16) // t2
	// Clear t2's reference bit only; CLOCK must take it on the sweep
	// even though it was touched last.
	clk.slots[clk.where[16]].ref = false
	if _, ok := clk.grabSlot(); !ok {
		t.Fatal("clock grabSlot failed")
	}
	if _, still := clk.where[16]; still {
		t.Fatal("clock kept the ref-cleared entry t2")
	}
}

// TestMapMissUnderMiss: independent requests missing on different
// translation pages fetch concurrently; misses on the same page
// coalesce onto one fetch.
func TestMapMissUnderMiss(t *testing.T) {
	e, f, _ := fmmuRig(4, 256)
	warmFootprint(f, 256)

	// Same page: two misses, one fetch, one coalesced join.
	base := f.MapStats()
	doneA, doneB := false, false
	f.Read([]int64{0}, func() { doneA = true }) // t0
	f.Read([]int64{1}, func() { doneB = true }) // t0 too
	e.Run()
	if !doneA || !doneB {
		t.Fatal("coalesced reads did not complete")
	}
	s := f.MapStats()
	if s.Misses != base.Misses+2 || s.Fetches != base.Fetches+1 || s.SharedMisses != base.SharedMisses+1 {
		t.Fatalf("same-page: misses +%d fetches +%d shared +%d, want +2/+1/+1",
			s.Misses-base.Misses, s.Fetches-base.Fetches, s.SharedMisses-base.SharedMisses)
	}

	// Different pages: both fetches in flight at once — neither request
	// serializes behind the other's map IO.
	var at2, at3 sim.Time
	f.Read([]int64{16}, func() { at2 = e.Now() }) // t2
	f.Read([]int64{24}, func() { at3 = e.Now() }) // t3
	e.Run()
	s2 := f.MapStats()
	if s2.Fetches != s.Fetches+2 {
		t.Fatalf("distinct pages shared a fetch: +%d", s2.Fetches-s.Fetches)
	}
	// A serialized pipeline would finish the second read a full
	// fetch+read later; concurrent fetches on different chips finish
	// within one page-read time of each other.
	if at2 == 0 || at3 == 0 {
		t.Fatal("reads did not complete")
	}
}

// TestMapWritebackBatching: dirty pages accumulate below the batch
// threshold and flush together exactly when it is reached.
func TestMapWritebackBatching(t *testing.T) {
	e, f, _ := fmmuRig(64, 256)
	warmFootprint(f, 256)

	write := func(lpn int64) {
		f.Write([]int64{lpn}, []flash.Token{TokenFor(lpn, 1)}, func() {})
		e.Run()
	}
	// One page short of the threshold: nothing flushes.
	for tp := 0; tp < mapWritebackBatch-1; tp++ {
		write(int64(tp) * 8)
	}
	if s := f.MapStats(); s.Writebacks != 0 {
		t.Fatalf("flushed %d writebacks below the batch threshold", s.Writebacks)
	}
	if f.mapu.dirtyCount != mapWritebackBatch-1 {
		t.Fatalf("dirtyCount = %d, want %d", f.mapu.dirtyCount, mapWritebackBatch-1)
	}
	// The next dirty page hits the threshold: all of them flush.
	write((mapWritebackBatch - 1) * 8)
	if s := f.MapStats(); s.Writebacks != mapWritebackBatch {
		t.Fatalf("Writebacks = %d, want %d", s.Writebacks, mapWritebackBatch)
	}
	if f.mapu.dirtyCount != 0 {
		t.Fatalf("dirtyCount = %d after flush", f.mapu.dirtyCount)
	}
	// Flash now holds the committed versions.
	for tp := 0; tp < mapWritebackBatch; tp++ {
		tok, ok := f.MapFlashToken(tp)
		if !ok || tok != MapTokenFor(tp, f.mapu.flashVer[tp]) {
			t.Fatalf("t=%d flash token %#x ok=%v", tp, tok, ok)
		}
	}
	if err := f.MapIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestMapCacheSizeOne: the degenerate one-entry cache still serves
// multi-page requests (lookups are sequential, so only the lookup
// instant needs residency) and dirty evictions write back correctly.
func TestMapCacheSizeOne(t *testing.T) {
	e, f, _ := fmmuRig(1, 256)
	warmFootprint(f, 256)

	// One request spanning four translation pages.
	done := false
	f.Read([]int64{0, 8, 16, 24}, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("multi-page read never completed on a 1-entry cache")
	}
	s := f.MapStats()
	if s.Misses < 3 {
		t.Fatalf("expected ≥3 misses through a 1-entry cache, got %d", s.Misses)
	}
	// Writes churn the single slot through dirty evictions.
	for lpn := int64(0); lpn < 64; lpn += 8 {
		f.Write([]int64{lpn}, []flash.Token{TokenFor(lpn, 1)}, func() {})
		e.Run()
	}
	if err := f.MapIdle(); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < 64; lpn += 8 {
		if got := contentOf(t, f, lpn); got != TokenFor(lpn, 1) {
			t.Fatalf("LPN %d content %#x after map churn", lpn, got)
		}
	}
}

// TestMapCleaningReclaims: writeback volume beyond the map region's
// append capacity forces cleaning rounds, which must relocate live
// translation pages intact and keep every committed version readable.
func TestMapCleaningReclaims(t *testing.T) {
	e, f, _ := fmmuRig(64, 128)
	warmFootprint(f, 128)

	// 16 translation pages, 5 map blocks (2 directory + 2 + spare) of 8
	// pages each: ~24 append pages before cleaning must run. Dirty the
	// whole map repeatedly.
	for round := 0; round < 12; round++ {
		for lpn := int64(0); lpn < 128; lpn += 8 {
			f.Write([]int64{lpn}, []flash.Token{TokenFor(lpn, int64(round+1))}, func() {})
		}
		e.Run()
	}
	s := f.MapStats()
	if s.CleanRounds == 0 || s.MapErases == 0 {
		t.Fatalf("no map cleaning despite %d writebacks (rounds=%d erases=%d)", s.Writebacks, s.CleanRounds, s.MapErases)
	}
	if err := f.MapIdle(); err != nil {
		t.Fatal(err)
	}
	// Conservation: flash holds exactly the last committed token for
	// every translation page, even after relocation.
	m := f.mapu
	for tp := 0; tp < m.numT; tp++ {
		tok, ok := f.MapFlashToken(tp)
		if !ok || tok != MapTokenFor(tp, m.flashVer[tp]) {
			t.Fatalf("t=%d after cleaning: flash %#x, want version %d", tp, tok, m.flashVer[tp])
		}
	}
	// Region bookkeeping balances: live counts sum to numT.
	live := 0
	for _, blk := range m.blocks {
		live += blk.live
	}
	if live != m.numT {
		t.Fatalf("live pages sum to %d, want %d", live, m.numT)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestFmmuInfiniteCacheConvergesToFlat: with every translation page
// resident (cache ≥ numT) and a read-only workload, fmmu performs no
// map IO at all, so per-request completion times and order match flat
// mapping exactly — the golden degeneracy check.
func TestFmmuInfiniteCacheConvergesToFlat(t *testing.T) {
	type result struct {
		order []int64
		times []sim.Time
	}
	runOne := func(cfg Config) result {
		e, f, _ := rigOn(mapGeo(), cfg, 256)
		warmFootprint(f, 256)
		var res result
		for i := 0; i < 40; i++ {
			lpn := int64((i * 37) % 256)
			lpn2 := int64((i*53 + 7) % 256)
			f.Read([]int64{lpn, lpn2}, func() {
				res.order = append(res.order, lpn)
				res.times = append(res.times, e.Now())
			})
		}
		e.Run()
		return res
	}
	flat := runOne(noGC())
	fm := runOne(fmmuCfg(1024))
	if len(flat.order) != len(fm.order) {
		t.Fatalf("completion counts differ: %d vs %d", len(flat.order), len(fm.order))
	}
	for i := range flat.order {
		if flat.order[i] != fm.order[i] || flat.times[i] != fm.times[i] {
			t.Fatalf("request %d diverged: flat (lpn %d at %v) vs fmmu (lpn %d at %v)",
				i, flat.order[i], flat.times[i], fm.order[i], fm.times[i])
		}
	}
}

// TestMapFlatAccessors: every map accessor is a well-defined zero in
// flat mode.
func TestMapFlatAccessors(t *testing.T) {
	_, f, _ := rig(noGC(), 256)
	if f.MapEnabled() {
		t.Fatal("flat FTL reports a map unit")
	}
	if s := f.MapStats(); s != (MapStats{}) {
		t.Fatalf("flat MapStats = %+v", s)
	}
	if f.NumTranslationPages() != 0 || f.MapCacheEntries() != 0 {
		t.Fatal("flat map geometry accessors nonzero")
	}
	if _, ok := f.MapFlashToken(0); ok {
		t.Fatal("flat MapFlashToken returned content")
	}
	if err := f.MapIdle(); err != nil {
		t.Fatal(err)
	}
	f.SetMapChecker(nil) // must be a no-op, not a panic
}

// TestMapTokensDisjoint: map tokens never collide with host-data tokens
// over the ranges a run can produce, so conservation checks cannot
// cross-match.
func TestMapTokensDisjoint(t *testing.T) {
	seen := make(map[flash.Token]bool)
	for tp := 0; tp < 64; tp++ {
		for v := int64(0); v < 8; v++ {
			seen[MapTokenFor(tp, v)] = true
		}
	}
	for lpn := int64(0); lpn < 256; lpn++ {
		for v := int64(0); v < 8; v++ {
			if seen[TokenFor(lpn, v)] {
				t.Fatalf("TokenFor(%d,%d) collides with a map token", lpn, v)
			}
		}
	}
}
