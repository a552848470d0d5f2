package flow

import "math"

// Never is the NextAt of an empty lane. It compares greater than every
// real cycle, so maturity probes need no emptiness branch — the same
// "never" a source calendar reports (traffic.NoEvent), since the fabric's
// wake table takes minima over both.
const Never int64 = math.MaxInt64

// Timed is one entry on a lane: V becomes visible to the reader at
// cycle At.
type Timed[T any] struct {
	At int64
	V  T
}

// Lane is the wire: a FIFO whose entries are pushed in nondecreasing
// arrival order and drained once matured — a flit going down a link, a
// credit coming back, a control word on its way to the router, each
// visible after a fixed propagation delay (§4.2, §4.3). The reader's
// cycle is
//
//	for l.Ready(t) {
//		v := l.Pop()
//		...
//	}
//	next := l.Settle()
//
// It is head-indexed over a reusable backing slice: Pop advances the head
// past a matured entry and Settle takes the popped prefix back — at once
// when the lane empties, the common case — so steady state reuses one
// backing array with no per-cycle allocation and no per-entry memmove. A
// lane has one writer and one reader; where they are different nodes of a
// fabric they run in different passes of the cycle (docs/performance.md,
// "The three passes"). The zero Lane is empty and ready to use.
type Lane[T any] struct {
	buf  []Timed[T]
	head int
}

// Push appends v, to mature at cycle at. Pushes come in nondecreasing at,
// so the lane stays sorted by maturity and the head is its minimum.
func (l *Lane[T]) Push(at int64, v T) { l.buf = append(l.buf, Timed[T]{At: at, V: v}) }

// Ready reports whether the head entry has matured by cycle t.
func (l *Lane[T]) Ready(t int64) bool { return l.head < len(l.buf) && l.buf[l.head].At <= t }

// Pop removes the head entry and returns its value. Only after Ready, and
// Settle follows the last Pop of a drain.
func (l *Lane[T]) Pop() T {
	v := l.buf[l.head].V
	l.head++
	return v
}

// Settle ends a drain: a lane the drain emptied goes back to the start of
// its backing array, and one it did not — a saturated link two or more
// cycles long never empties — slides its live entries down once they are
// no more than the popped ones before them, at most one move per entry
// popped, so the array stays within twice the most the lane ever held
// instead of growing by every entry it ever carried. It returns NextAt.
func (l *Lane[T]) Settle() int64 {
	switch live := len(l.buf) - l.head; {
	case live == 0:
		l.Reset()
	case live <= l.head:
		l.buf = l.buf[:copy(l.buf, l.buf[l.head:])]
		l.head = 0
	}
	return l.NextAt()
}

// NextAt returns the cycle the earliest pending entry matures at (Never
// when there is none).
func (l *Lane[T]) NextAt() int64 {
	if l.head == len(l.buf) {
		return Never
	}
	return l.buf[l.head].At
}

// Pending returns the undelivered entries, oldest first — for audits,
// checkpoints and fault-time purges; the slice is the lane's own storage.
func (l *Lane[T]) Pending() []Timed[T] { return l.buf[l.head:] }

// Filter drops the pending entries keep rejects, preserving the order of
// the rest — a fault cancelling a torn-down connection's entries. Control
// path only.
func (l *Lane[T]) Filter(keep func(T) bool) {
	kept := l.buf[l.head:l.head]
	for _, e := range l.buf[l.head:] {
		if keep(e.V) {
			kept = append(kept, e)
		}
	}
	l.buf = l.buf[:l.head+len(kept)]
	l.Settle()
}

// Reset empties the lane, keeping its storage.
func (l *Lane[T]) Reset() {
	l.buf = l.buf[:0]
	l.head = 0
}
