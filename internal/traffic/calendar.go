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
// looked at every cycle, while flits queue at its network interface.
// Visit hands one cycle's sessions to the injector and files each again
// as the injector left it. Ids are unique and the sessions come out in
// ascending id — the order the engines have always injected in, which is
// the order VBR sources draw from their host's RNG stream.
//
// A calendar is derived state: the engines rebuild it from their session
// lists and never serialize it.
type Calendar[T any] struct {
	heap    []calendarEntry[T] // waiting sessions
	held    []calendarEntry[T] // sessions to visit every cycle, ascending id
	visit   []calendarEntry[T] // the slice take returned last
	heldDue int64              // earliest due cycle among held, while any is
	stale   bool               // Invalidate since the sessions were last filed
	// from is the first cycle a Visit has work in: at once while the
	// calendar is stale or holds a session, else when the first waiting
	// one comes due.
	from int64
}

// calendarEntry is one filed session.
type calendarEntry[T any] struct {
	due  int64
	id   int64
	item T
}

// Invalidate says the injector's session list, or a session's source,
// changed behind the calendar: the next Visit files every session afresh.
// The control plane edits session lists, never the calendar.
func (c *Calendar[T]) Invalidate() { c.stale, c.from = true, math.MinInt64 }

// Stale reports an Invalidate no Visit has made good yet; until one does,
// NextDue and Holding describe the sessions as they were.
func (c *Calendar[T]) Stale() bool { return c.stale }

// Visit is an injector's one look at its sessions in cycle t: it hands
// inject each session the cycle must look at, with tick set when its source
// is due. key says where a session belongs, as file takes it: its source's
// due cycle, whether flits queue at its interface, its id. After an
// Invalidate the calendar is first emptied and every session of all — the
// injector's list, ascending id — filed by its key. Then every held session
// and every waiting one due at or before t goes to inject, in ascending id,
// and is filed again by its key as inject left it.
//
// With every set — the engine's NoIdleSkip, the reference — Visit hands
// over every session of all instead, in list order and each with tick set,
// and leaves the calendar stale: whenever a gated Visit comes next, it files
// every session afresh.
//
// Most cycles of most gated injectors have nothing held or due: Visit is
// then one compare, inlined at its caller.
func (c *Calendar[T]) Visit(t int64, every bool, all []T, key func(T) (due int64, queued bool, id int64), inject func(item T, tick bool)) {
	if every || t >= c.from {
		c.work(t, every, all, key, inject)
	}
}

// work is Visit when there is work.
func (c *Calendar[T]) work(t int64, every bool, all []T, key func(T) (due int64, queued bool, id int64), inject func(item T, tick bool)) {
	if every {
		for _, item := range all {
			inject(item, true)
		}
		c.Invalidate()
		return
	}
	if c.stale {
		c.heap, c.held = c.heap[:0], c.held[:0]
		for _, item := range all {
			c.file(item, key)
		}
		c.stale = false
	}
	for _, e := range c.take(t) {
		inject(e.item, e.due <= t)
		c.file(e.item, key)
	}
	switch {
	case len(c.held) > 0:
		c.from = math.MinInt64
	case len(c.heap) > 0:
		c.from = c.heap[0].due
	default:
		c.from = NoEvent
	}
}

// file puts a session where the next take that concerns it will find it:
// held — visited at every cycle taken — while flits wait at its network
// interface (a queued flit retries buffer entry every cycle), waiting for
// its due cycle otherwise, and nowhere once it has nothing queued and its
// source will never be due again (due == NoEvent). Held sessions must be
// filed in ascending id between two takes, as Visit does working through
// take's result or the id-ordered session list.
func (c *Calendar[T]) file(item T, key func(T) (due int64, queued bool, id int64)) {
	due, queued, id := key(item)
	switch {
	case queued:
		c.held = append(c.held, calendarEntry[T]{due, id, item})
		if len(c.held) == 1 || due < c.heldDue {
			c.heldDue = due
		}
	case due != NoEvent:
		c.heap = append(c.heap, calendarEntry[T]{due, id, item})
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
	if len(c.heap) > 0 && c.heap[0].due < due {
		due = c.heap[0].due
	}
	return due
}

// take removes and returns, in ascending id, every held session and
// every waiting one due at or before t. The slice is the calendar's and
// is good until the next take.
func (c *Calendar[T]) take(t int64) []calendarEntry[T] {
	c.visit, c.held = c.held, c.visit[:0]
	v := c.visit
	sorted := true
	for len(c.heap) > 0 && c.heap[0].due <= t {
		if len(v) > 0 && v[len(v)-1].id > c.heap[0].id {
			sorted = false
		}
		v = append(v, c.pop())
	}
	if !sorted {
		slices.SortFunc(v, func(a, b calendarEntry[T]) int { return cmp.Compare(a.id, b.id) })
	}
	c.visit = v
	return v
}

// before orders the heap: by due cycle, then id.
func (a *calendarEntry[T]) before(b *calendarEntry[T]) bool {
	return a.due < b.due || (a.due == b.due && a.id < b.id)
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
func (c *Calendar[T]) pop() calendarEntry[T] {
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
