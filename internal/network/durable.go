package network

import (
	"fmt"

	"mmr/internal/faults"
	"mmr/internal/sim"
)

// durable.go reifies the control plane's scheduled work as data. The
// event engine stores closures, which a checkpoint cannot serialize; so
// every event the network itself schedules — fault-plan transitions,
// restoration retries, OpenWithRetry re-searches — is described by a
// durableEvent record registered in Network.durables, and the closure
// handed to the engine merely dispatches on that record. EncodeState
// refuses to snapshot while any *non*-durable event is pending (user
// code scheduled through Network.Schedule holds arbitrary closures),
// which makes "pending events == durable journal" an explicit, checked
// precondition of every checkpoint.

// durableKind discriminates the journal's event records.
type durableKind uint8

const (
	// durFault applies faultSchedule[a] (a fault-plan transition).
	durFault durableKind = iota + 1
	// durRestore runs restoration attempt b for connection a.
	durRestore
	// durOpenRetry runs the next queued re-search of openRetries[a].
	durOpenRetry
	// durPromote runs a re-promotion scan over degraded connections:
	// a is the promotion generation the scan belongs to (stale
	// generations no-op), b is the scan's backoff attempt.
	durPromote
)

// durableEvent is one journaled control-plane event: its engine
// insertion sequence (the FIFO tie-break a restore must reproduce), its
// deadline, and a kind plus two operands interpreted per kind.
type durableEvent struct {
	seq  uint64
	at   int64
	kind durableKind
	a, b int64
}

// openRetry is the state of one FormRetry request (journaled once its
// first, synchronous attempt has failed). The done callback is
// process-local and is deliberately NOT checkpointed: after a restore
// the retry sequence continues with identical fabric-visible effects
// (searches, RNG draws, admission changes), but completion is reported
// to no one — the daemon layer treats a restore as having answered all
// in-flight requests with "retry pending".
type openRetry struct {
	req     OpenReq
	attempt int
	done    func(*Conn, error)
}

// scheduleDurable registers a journal record and schedules its dispatch
// on the event engine at absolute cycle at.
func (n *Network) scheduleDurable(at int64, kind durableKind, a, b int64) {
	ev := &durableEvent{at: at, kind: kind, a: a, b: b}
	n.events.At(sim.Time(at), sim.EventFunc(func(sim.Time) {
		delete(n.durables, ev.seq)
		n.fireDurable(ev)
	}))
	ev.seq = n.events.LastSeq()
	n.durables[ev.seq] = ev
}

// fireDurable dispatches a journaled event. It runs on the serial event
// path between flit cycles, exactly like the closures it replaces.
func (n *Network) fireDurable(ev *durableEvent) {
	switch ev.kind {
	case durFault:
		n.applyFaultEvent(n.faultSchedule[ev.a])
	case durRestore:
		n.restoreAttempt(n.conns[ev.a], int(ev.b))
	case durOpenRetry:
		// A missing registry entry (possible only through manual journal
		// editing) is a no-op.
		if or := n.openRetries[ev.a]; or != nil {
			n.openAttempt(ev.a, or)
		}
	case durPromote:
		n.promoteScan(ev.a, int(ev.b))
	default:
		panic(fmt.Sprintf("network: unknown durable event kind %d", ev.kind))
	}
}

// applyFaultEvent applies one expanded fault-plan transition.
func (n *Network) applyFaultEvent(ev faults.Event) {
	switch ev.Kind {
	case faults.LinkDown:
		n.FailLink(ev.Node, ev.Port)
	case faults.LinkUp:
		n.RestoreLink(ev.Node, ev.Port)
	case faults.RouterDown:
		n.FailRouter(ev.Node)
	case faults.RouterUp:
		n.RestoreRouter(ev.Node)
	}
}

// restoreAttempt is one re-establishment attempt for a fault-broken
// connection (attempt is 0-based). On failure within budget it journals
// the next attempt with exponential backoff and jitter; past the budget
// the connection is abandoned to the degrade path.
func (n *Network) restoreAttempt(c *Conn, attempt int) {
	if c.closed || !c.broken || c.Degraded || c.lost {
		return
	}
	if err := n.establish(c); err == nil {
		c.broken = false
		c.Restores++
		n.m.ConnsRestored++
		n.m.RestoreLatency.Add(float64(n.now - c.brokenAt))
		n.logEvent(SessionEvent{Kind: "conn-restored", Conn: c.ID, Node: c.Src, Port: -1,
			Detail: fmt.Sprintf("after %d cycles, attempt %d", n.now-c.brokenAt, attempt+1)})
		n.recordFlight(c.Src, evConnRestored, int32(c.Dst), int32(attempt+1), int64(c.ID))
		n.mustInvariants()
		// A successful restoration proves establishment is finding
		// resources again — give degraded sessions a shot too.
		n.schedulePromotion()
		return
	}
	if attempt >= n.cfg.Fault.MaxRetries {
		n.abandon(c)
		return
	}
	delay := n.retryBackoff(attempt)
	n.m.SetupRetries++
	n.scheduleDurable(n.now+delay, durRestore, int64(c.ID), int64(attempt+1))
}

// openAttempt runs the next attempt of a FormRetry request: the first,
// synchronous one (id < 0: not journaled yet) or a journaled re-search.
// It reports success, or the last error once the retry budget is spent;
// otherwise it journals the next attempt after a jittered backoff.
func (n *Network) openAttempt(id int64, or *openRetry) {
	c, err := n.open(or.req, nil)
	if err == nil || or.attempt >= n.cfg.Fault.MaxRetries {
		delete(n.openRetries, id)
		if or.done != nil { // a restored retry reports to no one
			or.done(c, err)
		}
		return
	}
	if id < 0 {
		id = n.nextOpenID
		n.nextOpenID++
		n.openRetries[id] = or
	}
	delay := n.retryBackoff(or.attempt)
	or.attempt++
	n.m.SetupRetries++
	n.scheduleDurable(n.now+delay, durOpenRetry, id, 0)
}
