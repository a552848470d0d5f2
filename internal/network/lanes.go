package network

import "mmr/internal/traffic"

// lanes.go holds the single-writer/single-reader staging lanes that carry
// a cycle's effects between nodes. A flit leaving on a wire or a credit
// returning upstream is appended to a lane owned by the *sender* during
// the commit phase, and drained by the unique *receiver* (the node wired
// to the other end) during a later cycle's delivery phase. Each lane has
// exactly one writer and one reader, in different phases, and each
// receiver drains its inbound lanes in ascending port order, so the merge
// order — and therefore the simulation — does not depend on the order the
// nodes are visited in within a phase.
//
// Both lane types are head-indexed rings over a reusable backing slice:
// the reader advances head past matured entries (O(delivered) per cycle,
// no memmove) and resets head and length together once the lane empties,
// so steady state reuses one backing array with no per-cycle allocation.

// laneIdle is the nextAt value of a lane with no pending entries. It
// compares greater than every real cycle, so maturity probes need no
// emptiness branch — the same "never" a source calendar reports, since
// the wake table takes minima over both.
const laneIdle = traffic.NoEvent

// creditLane carries credit returns from the node that freed a buffer
// slot back to the upstream node named in each entry's upRef. Lane
// credOut[p] of node x holds credits destined to Wired(x, p) — the node
// feeding x's input port p — which is the only node that drains it.
type creditLane struct {
	buf  []creditMsg
	head int

	// nextAt caches the head entry's arriveAt (laneIdle when empty).
	// Entries arrive in nondecreasing arriveAt order, so the head is
	// always the minimum; the receiver reads it after draining the lane
	// to learn the earliest entry it leaves behind (node.inboundAt), with
	// one flat-array load instead of dereferencing the backing slice.
	// Maintained by push (empty → non-empty), compact (after drains and
	// filters) and reset. Lanes allocated by make start at zero —
	// construction must set laneIdle.
	nextAt int64
}

// push appends a credit (writer side, commit phase). arriveAt values are
// nondecreasing across pushes, so the lane stays sorted by maturity.
func (l *creditLane) push(cm creditMsg) {
	if l.head == len(l.buf) {
		l.nextAt = cm.arriveAt
	}
	l.buf = append(l.buf, cm)
}

// pending returns the undelivered entries (for invariant audits and
// fault-time cancellation; not used on the hot path).
func (l *creditLane) pending() []creditMsg { return l.buf[l.head:] }

// compact resets the backing slice once every entry has been consumed,
// and re-syncs the nextAt cache after any head advance or filter.
func (l *creditLane) compact() {
	if l.head == len(l.buf) {
		l.buf = l.buf[:0]
		l.head = 0
		l.nextAt = laneIdle
	} else {
		l.nextAt = l.buf[l.head].arriveAt
	}
}

// filter drops pending entries rejected by keep — the fault path uses it
// to cancel in-flight credits of a torn-down connection. Control path only.
func (l *creditLane) filter(keep func(creditMsg) bool) {
	kept := l.buf[l.head:l.head]
	for _, cm := range l.buf[l.head:] {
		if keep(cm) {
			kept = append(kept, cm)
		}
	}
	l.buf = l.buf[:l.head+len(kept)]
	l.compact()
}

// flitLane carries flits in flight on one directed link: lane pipes[p] of
// node x holds flits sent from x's output port p toward Wired(x, p), the
// only node that drains it.
type flitLane struct {
	buf  []linkFlit
	head int

	// nextAt caches the head entry's arriveAt; see creditLane.nextAt.
	nextAt int64
}

// push appends a flit (writer side, commit phase).
func (l *flitLane) push(lf linkFlit) {
	if l.head == len(l.buf) {
		l.nextAt = lf.arriveAt
	}
	l.buf = append(l.buf, lf)
}

// pending returns the in-flight entries.
func (l *flitLane) pending() []linkFlit { return l.buf[l.head:] }

// compact resets the backing slice once every entry has been consumed,
// and re-syncs the nextAt cache after any head advance or filter.
func (l *flitLane) compact() {
	if l.head == len(l.buf) {
		l.buf = l.buf[:0]
		l.head = 0
		l.nextAt = laneIdle
	} else {
		l.nextAt = l.buf[l.head].arriveAt
	}
}

// filter drops pending entries rejected by keep (fault teardown purging a
// broken connection's flits). Control path only.
func (l *flitLane) filter(keep func(linkFlit) bool) {
	kept := l.buf[l.head:l.head]
	for _, lf := range l.buf[l.head:] {
		if keep(lf) {
			kept = append(kept, lf)
		}
	}
	l.buf = l.buf[:l.head+len(kept)]
	l.compact()
}

// reset empties the lane entirely (link-failure purge). Control path only.
func (l *flitLane) reset() {
	l.buf = l.buf[:0]
	l.head = 0
	l.nextAt = laneIdle
}

// stagedCredit is a credit synthesized during the delivery phase (a
// receiver detecting an impairment drop) that cannot be pushed onto its
// credit lane immediately: the lane's reader drains it in that same
// phase, and would or would not see the entry depending on which of the
// two nodes ran first. It is staged node-locally and flushed to
// credOut[port] at the start of the commit phase (drop credits precede
// that cycle's transmit credits).
type stagedCredit struct {
	port int // input port whose lane the credit belongs on
	cm   creditMsg
}
