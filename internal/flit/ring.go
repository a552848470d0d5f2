package flit

// Ring is an unbounded FIFO of flits over a growable ring buffer — the
// network-interface queue representation. Unlike the `q = q[1:]` slice
// shift it replaces, popping clears the vacated slot, so a drained queue
// never pins retired flits in its backing array (they would otherwise stay
// reachable and defeat both the GC and pool recycling), and pushing reuses
// the buffer instead of sliding an ever-growing window through memory.
// Capacity doubles on overflow (amortized O(1)); at steady state the
// buffer reaches the high-water mark once and pushes allocate nothing.
type Ring struct {
	buf        []*Flit
	head, size int
}

// Len returns the number of queued flits.
func (r *Ring) Len() int { return r.size }

// Push appends f to the tail, growing the buffer if full.
func (r *Ring) Push(f *Flit) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = f
	r.size++
}

// Pop removes and returns the head flit, or nil if empty. The vacated
// slot is cleared so the ring never retains a popped flit.
func (r *Ring) Pop() *Flit {
	if r.size == 0 {
		return nil
	}
	f := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return f
}

// Peek returns the head flit without removing it, or nil if empty.
func (r *Ring) Peek() *Flit {
	if r.size == 0 {
		return nil
	}
	return r.buf[r.head]
}

// At returns the i-th queued flit in FIFO order (0 is the head) without
// removing it — the non-destructive walk checkpointing serializes queue
// contents with. i outside [0, Len) panics.
func (r *Ring) At(i int) *Flit {
	if i < 0 || i >= r.size {
		panic("flit: Ring.At index out of range")
	}
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// grow doubles the buffer (minimum 8, always a power of two so indexing
// stays a mask) and linearizes the queue at the front.
func (r *Ring) grow() {
	n := len(r.buf) * 2
	if n == 0 {
		n = 8
	}
	buf := make([]*Flit, n)
	for i := 0; i < r.size; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
