package controller

// Venice-style conflict-aware path reservation.
//
// A read or GC copy names its full interconnect path (h-channel,
// v-channel, chips) as a set of PathSegs before it issues. The conflict
// table maps each segment to the transaction holding it; a newcomer
// whose path intersects an active reservation joins the deferred queue
// in arrival order and is re-examined every time a holder releases.
// Single-segment transactions (writes, erases) pass through unreserved —
// serializing one control packet behind a whole reserved path would cost
// bandwidth without preventing any real contention.

// frozenConflict reports whether the deferred head has been bypassed up
// to the reorder bound: from then on nothing may overtake it — new
// reserved arrivals defer and only the head may admit — so the head is
// guaranteed to issue once its blockers complete.
func (f *SchedFabric) frozenConflict() bool {
	return len(f.deferq) > 0 && f.deferq[0].bypassed >= f.bound
}

// pathFree reports whether none of the segments is reserved.
func (f *SchedFabric) pathFree(segs []PathSeg) bool {
	for _, s := range segs {
		if _, held := f.table[s]; held {
			return false
		}
	}
	return true
}

// drainConflict scans the deferred queue in arrival order and admits
// every transaction whose path is now free. Admitting over the head
// bumps the head's bypass count; once that count reaches the reorder
// bound the queue freezes — only the head may admit — which guarantees
// the head issues once the reservations blocking it release (they all
// complete in bounded simulated time), so no transaction starves.
func (f *SchedFabric) drainConflict() {
	for i := 0; i < len(f.deferq); {
		if i > 0 && f.frozenConflict() {
			return // frozen: the head must go next
		}
		op := f.deferq[i]
		if !f.pathFree(op.segs) {
			i++
			continue
		}
		f.deferq = append(f.deferq[:i], f.deferq[i+1:]...)
		for j := 0; j < i; j++ {
			f.deferq[j].bypassed++
		}
		f.issue(op, i)
	}
}
