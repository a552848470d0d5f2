package metrics

import (
	"fmt"
	"io"
)

// Event is one flight-recorder entry: a compact, allocation-free record
// of something notable a router did. The meaning of Code and the A/B/Aux
// operands is defined by the subsystem recording them (the network layer
// keeps its code table next to its instrumentation).
type Event struct {
	Cycle int64
	Code  uint16
	Node  int16
	A, B  int32
	Aux   int64
}

// Recorder is a fixed-size ring of recent events — the flight recorder.
// One recorder per router, written only by whichever goroutine is
// stepping that router, keeps recording single-writer and worker-count
// independent, exactly like the statistics shards. Recording overwrites
// the oldest entry once the ring is full. The first Record allocates the
// ring, so a router that never records holds none; nothing after
// allocates.
type Recorder struct {
	size int
	buf  []Event // nil until the first Record
	next int     // next write position
	n    int64   // total events ever recorded
}

// NewRecorder returns a recorder holding the most recent size events.
func NewRecorder(size int) *Recorder {
	return &Recorder{size: max(size, 1)}
}

// ring allocates the ring on first use. A recorder whose total is
// nonzero always has one.
func (r *Recorder) ring() {
	if r.buf == nil {
		r.buf = make([]Event, r.size)
	}
}

// Record appends one event, overwriting the oldest when full.
func (r *Recorder) Record(ev Event) {
	r.ring()
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.n++
}

// Len returns the number of events currently retained.
func (r *Recorder) Len() int { return int(min(r.n, int64(r.size))) }

// Total returns the number of events ever recorded (including those the
// ring has since overwritten).
func (r *Recorder) Total() int64 { return r.n }

// Events appends the retained events to dst, oldest first, and returns
// the extended slice.
func (r *Recorder) Events(dst []Event) []Event {
	k := r.Len()
	start := r.next - k
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < k; i++ {
		dst = append(dst, r.buf[(start+i)%len(r.buf)])
	}
	return dst
}

// SetTotal forces the total-events counter without touching the
// retained ring. Checkpoint restore replays the retained events through
// Record (which resets the total to the retained count) and then
// reinstates the true lifetime total with SetTotal; ring rotation state
// is unobservable, so the rebuilt recorder behaves identically.
func (r *Recorder) SetTotal(n int64) {
	if n > 0 {
		r.ring()
	}
	r.n = n
}

// Dump writes the retained events oldest-first as one line each, using
// name to decode event codes (nil falls back to the numeric code).
func (r *Recorder) Dump(w io.Writer, name func(code uint16) string) {
	for _, ev := range r.Events(nil) {
		code := fmt.Sprintf("code=%d", ev.Code)
		if name != nil {
			code = name(ev.Code)
		}
		fmt.Fprintf(w, "cycle=%-10d node=%-4d %-18s a=%d b=%d aux=%d\n",
			ev.Cycle, ev.Node, code, ev.A, ev.B, ev.Aux)
	}
}
