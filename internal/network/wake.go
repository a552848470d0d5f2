package network

import (
	"mmr/internal/traffic"
)

// wake.go is the activity-gating state. The gated engine never asks a
// node whether it has work; whatever gives a node work says so, once, at
// the moment it happens, in state the recorder owns:
//
//	wakeAt[id]  earliest cycle node id can have work — a buffered flit,
//	            NI backlog, an inbound lane entry maturing, a source due.
//
// It is written only after a cycle's three passes or between cycles, in one
// place — setWake — by three callers:
//
//	settle      every node that ran a cycle re-derives its own entry
//	            from state it owns: occupancy, its two source calendars
//	            (the stream sessions' and the best-effort flows' — it
//	            reads no session or flow list), and the earliest
//	            still-unmatured entry it saw on its inbound lanes while
//	            delivering (inboundAt).
//	push list   a lane push made in the commit phase notes its receiver
//	            (Network.pushed); once every node that ran has settled,
//	            the list lowers the receivers' wakeAt to the cycle the
//	            entry matures. A receiver that ran would otherwise
//	            overwrite the push with its own settle.
//	touch       every control-plane path that changes a node's sources,
//	            buffers or lanes marks it due now; it then runs the next
//	            cycle and settles from scratch.
//
// blockAt[b], derived and never serialized, bounds wakeAt[16b … 16b+15] from
// below: setWake lowers it with the entry it writes and never raises it, so
// it may be early — harmless, as below — until buildActive, which descends
// only into blocks whose bound has come, takes it again from the entries it
// leaves. nextWake reads the bounds alone; NoIdleSkip reads neither level.
//
// Buffered flits keep a node awake with one exception: packets the
// routing unit could not route (node.blocked) — every legal next router's
// input port has all its VCs reserved, typically by sessions that stay
// for good. Such a node's cycle changes nothing (routePackets fails the
// same way, the link scheduler skips unrouted VCs before any counter,
// election or RNG draw, so nothing is nominated), and only two things can
// end the wait, each of which reports it: a VC released at a neighbor's
// input port (the freed list from the commit phase, vcFreed from the
// control plane) wakes the node wired upstream of that port if it holds
// blocked packets, and a fault transition, which rebuilds the routing,
// wakes every node that does (wakeBlocked). A third cannot report in
// time — an impairment drop frees the dead packet's VC in the deliver
// phase of the very cycle the sender must see it — so while a fault plan
// has impairments nothing counts as blocked (routePackets). Without the
// exception one port full of long-lived sessions keeps the router before
// it, and so the whole fabric's clock, awake for ever. The same reports
// spare a router that is awake for other work — sessions passing through
// — from routing its blocked packets again every cycle: routePackets
// marks them stuck and looks again only once one of those reports has
// set node.reroute.
//
// An entry may be early, never late. A node woken early runs a cycle in
// which nothing is buffered, matured or due — the cycle every node runs
// all the time under NoIdleSkip, which the gating-equivalence suites
// prove changes nothing — and settles to its true value. A late entry
// would deliver, credit or inject late. TestWakeTableMatchesScan holds
// the table to the scanning predicates it replaced (wake_ref_test.go).
//
// None of this is simulated state: a fabric fresh from New has every node
// due at cycle 0 and every calendar stale, so a restored checkpoint
// rebuilds it all in its first cycle, and nothing here is serialized.

// setWake is the one place a wake-table entry is written; wakeBlock entries
// share a block bound.
const wakeBlock = 16

func (n *Network) setWake(id int, at int64) {
	n.wakeAt[id] = at
	if b := id / wakeBlock; at < n.blockAt[b] {
		n.blockAt[b] = at
	}
}

// touch marks node id, inbound lanes and all, due now. Between cycles only.
func (n *Network) touch(id int) {
	n.setWake(id, n.now)
	n.nodes[id].cal.Invalidate()
	n.nodes[id].pcal.Invalidate()
	n.nodes[id].reroute = true
	n.nodes[id].inbound.Fill()
}

// unblock makes node id, if it holds blocked packets, route them again
// at cycle at. Between cycles only.
func (n *Network) unblock(id int, at int64) {
	if nd := n.nodes[id]; nd.blocked > 0 {
		nd.reroute = true
		if n.wakeAt[id] > at {
			n.setWake(id, at)
		}
	}
}

// vcFreed reports a VC released at input port port of node id between
// cycles: the node wired upstream of it is due now if it holds packets
// that wait for one. Between cycles only.
func (n *Network) vcFreed(id, port int) {
	if peer := n.nodes[id].outPeer[port]; peer >= 0 {
		n.unblock(int(peer), n.now)
	}
}

// wakeBlocked marks every node that holds unroutable packets due now: the
// routing tables changed under them. Between cycles only.
func (n *Network) wakeBlocked() {
	for id := range n.nodes {
		n.unblock(id, n.now)
	}
}

// noteFreed records that nd released a packet's VC at its input port p
// this cycle. Commit phase.
func (n *Network) noteFreed(nd *node, p int) {
	if peer := nd.outPeer[p]; peer >= 0 && !n.cfg.NoIdleSkip {
		n.freed = append(n.freed, peer)
	}
}

// notePush records that nd appended to its outbound lane pair on port p
// this cycle: in the receiver's inbound vector — whatever NoIdleSkip says,
// so a flip of the flag finds it true — and in the push list. Commit phase.
func (n *Network) notePush(nd *node, p int) {
	n.nodes[nd.outPeer[p]].inbound.Set(int(nd.peerIn[p]))
	if !n.cfg.NoIdleSkip {
		n.pushed = append(n.pushed, nd.outPeer[p])
	}
}

// settle brings the wake table up to date after cycle t: every node that
// ran re-derives its entry, then the lane pushes and VC releases of the
// cycle wake their receivers (in that order — a receiver that also ran
// must not overwrite the push).
func (n *Network) settle(t int64) {
	for _, nd := range n.active {
		due := min(nd.cal.NextDue(), nd.pcal.NextDue())
		switch {
		case nd.Occ > int64(nd.blocked) || nd.cal.Holding() || nd.pcal.Holding():
			due = t + 1
		case nd.inboundAt < due:
			due = nd.inboundAt
		}
		n.setWake(nd.id, due)
	}
	// A lane entry pushed at t matures at t+LinkDelay and is delivered by
	// the first cycle after t that reaches it.
	arrive := t + n.cfg.LinkDelay
	if arrive <= t {
		arrive = t + 1
	}
	for _, peer := range n.pushed {
		if n.wakeAt[peer] > arrive {
			n.setWake(int(peer), arrive)
		}
	}
	n.pushed = n.pushed[:0]
	// A VC released at t can be claimed from t+1 on, whatever the link
	// delay: the routing unit reads the neighbor's reservations directly.
	for _, peer := range n.freed {
		n.unblock(int(peer), t+1)
	}
	n.freed = n.freed[:0]
}

// buildActive computes this cycle's worklist — the nodes whose wake-table
// entry has come, in ascending node order — in one pass over the block
// bounds and the blocks that are due, whose bounds it takes again.
func (n *Network) buildActive(t int64) {
	n.active = n.active[:0]
	n.wakeReads += int64(len(n.blockAt))
	for b, bound := range n.blockAt {
		if bound > t {
			continue
		}
		bound = traffic.NoEvent
		lo := b * wakeBlock
		block := n.wakeAt[lo:min(lo+wakeBlock, len(n.wakeAt))]
		n.wakeReads += int64(len(block))
		for i, at := range block {
			if at <= t {
				n.active = append(n.active, n.nodes[lo+i])
			} else if at < bound {
				bound = at
			}
		}
		n.blockAt[b] = bound
	}
}

// nextWake returns the earliest cycle in (t, limit] at which anything can
// happen: the next session event or the earliest wake-table entry.
func (n *Network) nextWake(t, limit int64) int64 {
	next := limit
	if at, ok := n.events.NextAt(); ok && int64(at) < next {
		next = int64(at)
	}
	for _, at := range n.blockAt {
		if at < next {
			next = at
		}
	}
	if next <= t {
		next = t + 1
	}
	return next
}

// injecting reports whether c's source is live: a session that is open
// and has a generator.
func (c *Conn) injecting() bool { return c.open && c.ni.Source != nil }

// calendarKey says where nd's source calendar files c (traffic.Calendar):
// by its forecast while it injects, held while its interface queues a flit
// its entry VC has room for, nowhere once it is closed or broken.
func (nd *node) calendarKey(c *Conn) (due int64, held bool, id int64) {
	due, id = traffic.NoEvent, int64(c.ID)
	if c.closed || c.broken {
		return due, false, id
	}
	if c.injecting() {
		due = c.ni.NextDue
	}
	return due, nd.CanFeed(c.VCs[0].Port, c.VCs[0].VC, &c.ni.Queue), id
}

// calendarKey says where the packet calendar files bf: by its forecast,
// and every cycle while packets queue at its interface.
func (bf *beFlow) calendarKey() (due int64, held bool, id int64) {
	return bf.ni.NextDue, bf.ni.Queue.Len() > 0, int64(bf.id)
}
