package sim

import "testing"

// TestQueue pins Queue's slice reuse: pops advance the head without
// moving entries, a push slides the live entries to the front only when
// the slice is full, a PopN result stays valid until the next push, and
// a queue emptied by pops keeps its capacity.
func TestQueue(t *testing.T) {
	const c = 8
	q := Queue[int]{q: make([]int, 0, c)}
	copy(q.PushN(4), []int{1, 2, 3, 4})
	if q.Len() != 4 || q.Peek(0) != 1 || q.Peek(3) != 4 {
		t.Fatalf("after four pushes: len %d, head %d, tail %d", q.Len(), q.Peek(0), q.Peek(3))
	}
	if v := q.Pop(); v != 1 || q.q[0] != 0 || q.head != 1 {
		t.Fatalf("Pop = %d, leaving slot 0 = %d and head %d, want 1, 0 and 1", v, q.q[0], q.head)
	}
	got := q.PopN(2)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 || q.Len() != 1 || q.Peek(0) != 4 {
		t.Fatalf("PopN(2) = %v leaving %d entries headed by %d, want [2 3] and 1 headed by 4", got, q.Len(), q.Peek(0))
	}
	// Pushes that fit behind the popped slots append without sliding,
	// so the PopN result is still intact until a push must slide.
	for v := 5; len(q.q) < c; v++ {
		q.Push(v)
		if q.head != 3 {
			t.Fatalf("push %d into a slice with room slid the queue (head %d, want 3)", v, q.head)
		}
	}
	if got[0] != 2 || got[1] != 3 {
		t.Fatalf("PopN result changed to %v before the queue slid", got)
	}
	n := q.Len()
	q.Push(-1)
	if q.head != 0 || q.Len() != n+1 || q.Peek(0) != 4 || q.Peek(n) != -1 || cap(q.q) != c {
		t.Fatalf("push into a full slice: head %d, len %d, cap %d, want a slide to head 0, len %d, cap %d", q.head, q.Len(), cap(q.q), n+1, c)
	}
	for i := 0; i <= n; i++ {
		q.Pop()
	}
	if q.Len() != 0 || q.head != 0 || len(q.q) != 0 || cap(q.q) != c {
		t.Fatalf("emptied queue: len %d, head %d, slice len %d, cap %d, want 0, 0, 0, %d", q.Len(), q.head, len(q.q), cap(q.q), c)
	}
}
