package sim

import "container/heap"

// Time is simulation time. The single-router engine measures it in flit
// cycles; the network engine measures it in router clock cycles. Both are
// integer ticks — the MMR is a synchronous design (§3.4), so continuous
// time buys nothing.
type Time int64

// Event is a unit of scheduled work. Fire runs when the simulation clock
// reaches the event's deadline.
type Event interface {
	Fire(t Time)
}

// EventFunc adapts an ordinary function to the Event interface.
type EventFunc func(t Time)

// Fire implements Event.
func (f EventFunc) Fire(t Time) { f(t) }

// scheduled pairs an event with its deadline and an insertion sequence
// number. The sequence number makes ordering of same-deadline events
// deterministic (FIFO), which keeps whole simulations reproducible.
type scheduled struct {
	at    Time
	seq   uint64
	event Event
}

type eventHeap []scheduled

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(scheduled)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Engine is a discrete-event simulation loop: a clock plus a pending-event
// queue. The zero value is ready to use at time 0.
type Engine struct {
	now   Time
	seq   uint64
	queue eventHeap
	fired uint64
}

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules ev to fire at absolute time t. Scheduling in the past
// (t < Now) panics: it is always a model bug, and silently reordering
// events would corrupt causality.
func (e *Engine) At(t Time, ev Event) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	heap.Push(&e.queue, scheduled{at: t, seq: e.seq, event: ev})
}

// after schedules ev to fire delay ticks from now.
func (e *Engine) after(delay Time, ev Event) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now+delay, ev)
}

// LastSeq returns the insertion sequence number assigned by the most
// recent At call. Checkpointing uses it to key the durable-event
// journal: re-inserting journal entries in ascending original-sequence
// order after a restore reproduces the engine's FIFO tie-breaking.
func (e *Engine) LastSeq() uint64 { return e.seq }

// SetClock forces the engine's clock and fired-event counter, for
// restoring a checkpointed simulation. It panics if events are pending:
// restore must set the clock before re-inserting journaled events so no
// pending deadline can be stranded in the past.
func (e *Engine) SetClock(t Time, fired uint64) {
	if len(e.queue) != 0 {
		panic("sim: SetClock with pending events")
	}
	e.now = t
	e.fired = fired
}

// NextAt returns the deadline of the earliest pending event. ok is false
// when the queue is empty. The activity-gated network engine uses it to
// fast-forward the clock across event-free gaps.
func (e *Engine) NextAt() (t Time, ok bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Step fires the earliest pending event, advancing the clock to its
// deadline. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	s := heap.Pop(&e.queue).(scheduled)
	e.now = s.at
	e.fired++
	s.event.Fire(s.at)
	return true
}

// Run fires events until the queue drains or the clock would pass limit.
// Events scheduled exactly at limit still fire. It returns the number of
// events fired during this call.
func (e *Engine) Run(limit Time) uint64 {
	start := e.fired
	for len(e.queue) > 0 && e.queue[0].at <= limit {
		e.Step()
	}
	if e.now < limit {
		e.now = limit
	}
	return e.fired - start
}
