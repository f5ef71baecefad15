package sim

import "slices"

// Queue is a FIFO that reuses its slice, the module's one queue type: a
// resource's waiters, a flash die's operations and their targets, and a
// tenant's submission queue are all Queues. The live entries slide to
// the front only when a push finds the slice full, and the slice resets
// when a pop empties it, so a steady queue allocates nothing once it has
// grown. The zero value is an empty queue.
type Queue[T any] struct {
	q    []T // q[head:] are the queued entries, oldest first
	head int
}

// Len returns the number of queued entries.
func (f *Queue[T]) Len() int { return len(f.q) - f.head }

// Push appends v behind the queued entries.
func (f *Queue[T]) Push(v T) {
	f.slide(1)
	f.q = append(f.q, v)
}

// PushN appends n entries for the caller to fill in place and returns
// them, valid until the next push. They may hold popped values.
func (f *Queue[T]) PushN(n int) []T {
	f.slide(n)
	l := len(f.q)
	f.q = slices.Grow(f.q, n)[:l+n]
	return f.q[l:]
}

// slide moves the live entries to the front when n more would not fit
// behind them and popped slots sit before them.
func (f *Queue[T]) slide(n int) {
	if f.head > 0 && len(f.q)+n > cap(f.q) {
		m := copy(f.q, f.q[f.head:])
		clear(f.q[m:])
		f.q, f.head = f.q[:m], 0
	}
}

// Peek returns the i-th oldest entry without removing it; Peek(0) is
// the head.
func (f *Queue[T]) Peek(i int) T { return f.q[f.head+i] }

// Pop removes and returns the oldest entry, zeroing its slot.
func (f *Queue[T]) Pop() T {
	h := f.head
	v := f.q[h]
	f.q[h] = *new(T)
	if h++; h == len(f.q) {
		f.q, h = f.q[:0], 0
	}
	f.head = h
	return v
}

// PopN removes the n oldest entries and returns them, valid until the
// next push. Their slots are not zeroed until a push overwrites them or
// Reset clears the queue.
func (f *Queue[T]) PopN(n int) []T {
	out := f.q[f.head : f.head+n]
	if f.head += n; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return out
}
