package sim

// Pool is a free list of recycled records, the module's one: every
// recycled operation record is taken from and given back to a Pool. A
// record goes back only after its last event has fired, and before its
// owner runs the caller's completion, which may take the same record
// again. Pools hang off the instance that owns the records, so
// concurrent engines share none. The zero value is an empty pool.
type Pool[T any] struct {
	free []*T
}

// Get pops the record put back last. When the pool is empty it returns
// a new zero record and fresh = true, and the caller sets the record up
// (its back pointer, its bound callbacks) before the first use.
func (p *Pool[T]) Get() (r *T, fresh bool) {
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free = p.free[:n-1]
		return r, false
	}
	return new(T), true
}

// Put gives r back for a later Get.
func (p *Pool[T]) Put(r *T) { p.free = append(p.free, r) }

// Lane is one chain of a record's steps that run one after another: a
// step code and one callback bound when the record is built, which runs
// the step the code names. A record hands Then(s) on wherever the next
// step is a callback, so its steps allocate nothing. A record needs a
// second lane only where two of its chains are pending at once.
type Lane[S ~uint8] struct {
	Step S // what the bound callback runs next
	fire func()
}

// Bind binds the lane's callback, once, when the record is built.
func (l *Lane[S]) Bind(run func()) { l.fire = run }

// Then sets the step the callback runs next and returns the callback.
func (l *Lane[S]) Then(s S) func() {
	l.Step = s
	return l.fire
}
