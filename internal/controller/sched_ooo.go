package controller

// Sprinkler-style out-of-order die-level scheduling.
//
// Transactions pool in arrival order; an inflight window caps how many
// run concurrently and bounds how far ahead the picker may look. Each
// drain picks the eligible transaction whose target dies carry the
// least inflight work — maximizing the number of distinct busy dies —
// instead of honouring FIFO order. Every pick over older transactions
// bumps their bypass counters; one that reaches the reorder bound is
// issued next unconditionally, so reordering never starves a command.

// drainOOO fills the inflight window: while a slot is free, pick among
// the oldest Window pending transactions and issue the winner.
func (f *SchedFabric) drainOOO() {
	for f.inflight < f.window && len(f.pending) > 0 {
		idx := f.pickOOO()
		op := f.pending[idx]
		f.pending = append(f.pending[:idx], f.pending[idx+1:]...)
		for j := 0; j < idx; j++ {
			f.pending[j].bypassed++
		}
		if idx > 0 {
			f.reordered++
		}
		f.issue(op, idx)
	}
}

// pickOOO returns the index of the next transaction to issue: the
// starved one if any crossed the reorder bound (oldest first), else the
// lowest-load candidate with ties broken toward arrival order.
func (f *SchedFabric) pickOOO() int {
	lim := len(f.pending)
	if lim > f.window {
		lim = f.window
	}
	for i := 0; i < lim; i++ {
		if f.pending[i].bypassed >= f.bound {
			f.forced++
			return i
		}
	}
	best, bestLoad := 0, f.loadOf(f.pending[0])
	for i := 1; i < lim; i++ {
		if l := f.loadOf(f.pending[i]); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// loadOf scores a transaction by the inflight work already targeting its
// chips: 0 means every target die is idle from the scheduler's view.
func (f *SchedFabric) loadOf(op *schedOp) int {
	load := 0
	for _, c := range op.chips() {
		load += f.chipLoad[c]
	}
	return load
}
