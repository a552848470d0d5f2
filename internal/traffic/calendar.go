package traffic

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// NoEvent is the due cycle of a session that will never inject again. It
// compares greater than every real cycle.
const NoEvent int64 = math.MaxInt64

// Calendar says which of an injector's sessions a cycle has to look at,
// so that a session between two arrivals costs its host nothing. A
// session is filed in one of two places: waiting, in a radix heap on its
// due cycle, until its source's forecast comes due; or held, to be looked
// at every cycle, while its key says the injector can move something out
// of its network interface queue every cycle — a packet flow while packets
// queue (each retries VC allocation, an RNG draw, every cycle), a stream
// session only while its entry VC has room for its queued flits (a full VC
// is refilled by the pop that frees it, not by the injector). Visit hands
// one cycle's sessions to the injector and files each again as the
// injector left it. Ids are unique and the sessions come out in ascending
// id — the order the engines have always injected in, which is the order
// VBR sources draw from their host's RNG stream.
//
// The waiting sessions form a radix heap (Ahuja, Mehlhorn, Orlin and
// Tarjan, 1990): bucket 0 holds those due at origin, bucket b > 0 those
// whose due cycle first differs from origin in bit b-1, so every due cycle
// in a bucket lies below every one in a higher bucket. Filing one is a
// push onto its bucket's list; take moves origin only to the minimum of a
// bucket that has come due, and spreads that bucket over lower ones. Due
// cycles filed are never below origin: a session visited at t is filed
// again due after t, and a rebuild starts origin at 0.
//
// A calendar is derived state: the engines rebuild it from their session
// lists and never serialize it.
type Calendar[T any] struct {
	// The waiting sessions' entries live in pool, linked by 1-based
	// indices (0 ends a list) into their bucket's list or the free list.
	pool    []calendarNode[T]
	free    int32
	buckets *calendarBuckets // nil until a session first waits
	filled  uint64           // bit b set while bucket b holds an entry
	origin  int64

	held    []calendarEntry[T] // sessions to visit every cycle, ascending id
	visit   []calendarEntry[T] // the merge take returned last
	due     []calendarEntry[T] // the waiting sessions take found due
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

// calendarNode is a waiting session and the next entry of its list.
type calendarNode[T any] struct {
	calendarEntry[T]
	next int32
}

// calendarBuckets is a radix heap's bucket table: 64 buckets cover every
// due cycle from origin to NoEvent.
type calendarBuckets struct {
	min  [64]int64 // each filled bucket's earliest due cycle
	head [64]int32 // each filled bucket's first entry
}

// Invalidate says the injector's session list, or a session's source,
// changed behind the calendar: the next Visit files every session afresh.
// The control plane edits session lists, never the calendar.
func (c *Calendar[T]) Invalidate() { c.stale, c.from = true, math.MinInt64 }

// Visit is an injector's one look at its sessions in cycle t: it hands
// inject each session the cycle must look at, with tick set when its source
// is due. key says where a session belongs, as file takes it: its source's
// due cycle, whether it is to be held, its id. After an Invalidate the
// calendar is first emptied and every session of all — the injector's
// list, ascending id — filed by its key. Then every held session and every
// waiting one due at or before t goes to inject, in ascending id, and is
// filed again by its key as inject left it.
//
// With every set — the engine's NoIdleSkip, the reference — Visit hands
// over every session of all instead, in list order and each with tick set,
// and leaves the calendar stale: whenever a gated Visit comes next, it files
// every session afresh.
//
// Most cycles of most gated injectors have nothing held or due: Visit is
// then one compare, inlined at its caller.
func (c *Calendar[T]) Visit(t int64, every bool, all []T, key func(T) (due int64, held bool, id int64), inject func(item T, tick bool)) {
	if every || t >= c.from {
		c.work(t, every, all, key, inject)
	}
}

// work is Visit when there is work.
func (c *Calendar[T]) work(t int64, every bool, all []T, key func(T) (due int64, held bool, id int64), inject func(item T, tick bool)) {
	if every {
		for _, item := range all {
			inject(item, true)
		}
		c.Invalidate()
		return
	}
	if c.stale {
		c.pool, c.free, c.filled, c.origin = c.pool[:0], 0, 0, 0
		c.held = c.held[:0]
		for _, item := range all {
			c.file(item, key)
		}
		c.stale = false
	}
	for _, e := range c.take(t) {
		inject(e.item, e.due <= t)
		c.file(e.item, key)
	}
	c.from = c.nextWaiting()
	if len(c.held) > 0 {
		c.from = math.MinInt64
	}
}

// file puts a session where the next take that concerns it will find it:
// held — visited at every cycle taken — while its key says so, waiting for
// its due cycle otherwise, and nowhere once it is not held and its source
// will never be due again (due == NoEvent). Held sessions must be filed in
// ascending id between two takes, as Visit does working through take's
// result or the id-ordered session list.
func (c *Calendar[T]) file(item T, key func(T) (due int64, held bool, id int64)) {
	due, held, id := key(item)
	switch {
	case held:
		c.held = append(c.held, calendarEntry[T]{due, id, item})
		if len(c.held) == 1 || due < c.heldDue {
			c.heldDue = due
		}
	case due != NoEvent:
		i := c.free
		if i != 0 {
			c.free = c.pool[i-1].next
		} else {
			c.pool = append(c.pool, calendarNode[T]{})
			i = int32(len(c.pool))
		}
		c.pool[i-1].calendarEntry = calendarEntry[T]{due, id, item}
		c.link(i)
	}
}

// link pushes pool entry i onto the list of the bucket its due cycle
// belongs in.
func (c *Calendar[T]) link(i int32) {
	e := &c.pool[i-1]
	if e.due < c.origin {
		panic("traffic: a session filed due before the calendar's origin")
	}
	if c.buckets == nil {
		c.buckets = new(calendarBuckets)
	}
	// A due cycle and the origin are non-negative: b is at most 63.
	bk, b := c.buckets, bits.Len64(uint64(e.due^c.origin))&63
	if c.filled&(1<<b) == 0 {
		c.filled |= 1 << b
		bk.min[b], e.next = e.due, 0
	} else {
		bk.min[b], e.next = min(bk.min[b], e.due), bk.head[b]
	}
	bk.head[b] = i
}

// Holding reports whether any session is held. It and NextDue describe the
// sessions as last filed: after an Invalidate, as they were until the next
// Visit.
func (c *Calendar[T]) Holding() bool { return len(c.held) > 0 }

// NextDue returns the earliest cycle a filed session's source is due.
func (c *Calendar[T]) NextDue() int64 {
	due := c.nextWaiting()
	if len(c.held) > 0 {
		due = min(due, c.heldDue)
	}
	return due
}

// nextWaiting returns the earliest due cycle of a waiting session, or
// NoEvent: the minimum of the lowest filled bucket.
func (c *Calendar[T]) nextWaiting() int64 {
	if c.filled == 0 {
		return NoEvent
	}
	return c.buckets.min[bits.TrailingZeros64(c.filled)]
}

// take removes and returns, in ascending id, every held session and
// every waiting one due at or before t. The slice is the calendar's and
// is good until the next take.
func (c *Calendar[T]) take(t int64) []calendarEntry[T] {
	due := c.due[:0]
	for c.filled != 0 {
		bk, b := c.buckets, bits.TrailingZeros64(c.filled)
		if bk.min[b] > t {
			break
		}
		c.filled &^= 1 << b
		i := bk.head[b]
		if b > 0 {
			// The origin moves up to the bucket's minimum: every entry of
			// the bucket then belongs in a lower one.
			c.origin = bk.min[b]
			for i != 0 {
				next := c.pool[i-1].next
				c.link(i)
				i = next
			}
			continue
		}
		for i != 0 { // all due at origin ≤ t
			e := &c.pool[i-1]
			due = append(due, e.calendarEntry)
			i, e.next, c.free = e.next, c.free, i
		}
	}
	sortByID(due)
	c.due = due

	held := c.held
	switch {
	case len(due) == 0:
		c.visit, c.held = held, c.visit[:0]
		return held
	case len(held) == 0:
		return due
	}
	v := c.visit[:0]
	for len(held) > 0 && len(due) > 0 {
		if held[0].id < due[0].id {
			v, held = append(v, held[0]), held[1:]
		} else {
			v, due = append(v, due[0]), due[1:]
		}
	}
	v = append(append(v, held...), due...)
	c.visit, c.held = v, c.held[:0]
	return v
}

// sortByID orders take's due sessions by id: by an insertion pass, as a
// cycle has few of them, but for a rebuild, which can find hundreds due at
// once.
func sortByID[T any](v []calendarEntry[T]) {
	if len(v) > 32 {
		slices.SortFunc(v, func(a, b calendarEntry[T]) int { return cmp.Compare(a.id, b.id) })
		return
	}
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j].id < v[j-1].id; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
