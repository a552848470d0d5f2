package traffic

import (
	"cmp"
	"math"
	"slices"
)

// NoEvent is the due cycle of a session that will never inject again. It
// compares greater than every real cycle.
const NoEvent int64 = math.MaxInt64

// Calendar says which of an injector's sessions a cycle has to look at,
// so that a session between two arrivals costs its host nothing. A
// session is filed in one of two places: waiting, in a min-heap on (due
// cycle, id), until its source's forecast comes due; or held, to be
// looked at every cycle, while flits queue at its network interface. Take
// hands out the sessions of one cycle and forgets them; the caller files
// each again as it finds it. Ids are unique and the sessions come out in
// ascending id — the order the engines have always injected in, which is
// the order VBR sources draw from their host's RNG stream.
//
// A calendar is derived state: the engines rebuild it from their session
// lists and never serialize it.
type Calendar[T any] struct {
	heap    []CalendarEntry[T] // waiting sessions
	held    []CalendarEntry[T] // sessions to visit every cycle, ascending id
	visit   []CalendarEntry[T] // the slice Take returned last
	heldDue int64              // earliest due cycle among held, while any is
}

// CalendarEntry is one filed session.
type CalendarEntry[T any] struct {
	Due  int64
	ID   int64
	Item T
}

// Reset empties the calendar, keeping its storage.
func (c *Calendar[T]) Reset() {
	c.heap, c.held = c.heap[:0], c.held[:0]
}

// File puts a session where the next Take that concerns it will find it:
// held — visited at every cycle taken — while queued says flits wait at
// its network interface (a queued flit retries buffer entry every cycle),
// waiting for cycle due otherwise, and nowhere once it has nothing queued
// and its source will never be due again (due == NoEvent). Held sessions
// must be filed in ascending id between two Takes, as a caller working
// through Take's result, or through its id-ordered session list, does.
func (c *Calendar[T]) File(due int64, queued bool, id int64, item T) {
	switch {
	case queued:
		c.held = append(c.held, CalendarEntry[T]{due, id, item})
		if len(c.held) == 1 || due < c.heldDue {
			c.heldDue = due
		}
	case due != NoEvent:
		c.heap = append(c.heap, CalendarEntry[T]{due, id, item})
		c.up(len(c.heap) - 1)
	}
}

// Holding reports whether any session is held.
func (c *Calendar[T]) Holding() bool { return len(c.held) > 0 }

// NextDue returns the earliest cycle a filed session's source is due.
func (c *Calendar[T]) NextDue() int64 {
	due := NoEvent
	if len(c.held) > 0 {
		due = c.heldDue
	}
	if len(c.heap) > 0 && c.heap[0].Due < due {
		due = c.heap[0].Due
	}
	return due
}

// Take removes and returns, in ascending id, every held session and
// every waiting one due at or before t. The slice is the calendar's and
// is good until the next Take.
func (c *Calendar[T]) Take(t int64) []CalendarEntry[T] {
	c.visit, c.held = c.held, c.visit[:0]
	v := c.visit
	sorted := true
	for len(c.heap) > 0 && c.heap[0].Due <= t {
		if len(v) > 0 && v[len(v)-1].ID > c.heap[0].ID {
			sorted = false
		}
		v = append(v, c.pop())
	}
	if !sorted {
		slices.SortFunc(v, func(a, b CalendarEntry[T]) int { return cmp.Compare(a.ID, b.ID) })
	}
	c.visit = v
	return v
}

// before orders the heap: by due cycle, then id.
func (a *CalendarEntry[T]) before(b *CalendarEntry[T]) bool {
	return a.Due < b.Due || (a.Due == b.Due && a.ID < b.ID)
}

func (c *Calendar[T]) up(i int) {
	h := c.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// pop removes the heap's root. The last entry takes its place by sinking
// the hole to a leaf along the smaller children and rising from there: a
// session just re-filed is due late and belongs near the bottom, so this
// spends one comparison per level where the textbook sift-down spends
// two.
func (c *Calendar[T]) pop() CalendarEntry[T] {
	h := c.heap
	root := h[0]
	n := len(h) - 1
	c.heap = h[:n]
	if n == 0 {
		return root
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].before(&h[l]) {
			l = r
		}
		h[i] = h[l]
		i = l
	}
	h[i] = h[n]
	c.up(i)
	return root
}
