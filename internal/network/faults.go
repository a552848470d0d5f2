package network

import (
	"fmt"

	"mmr/internal/faults"
	"mmr/internal/flit"
	"mmr/internal/traffic"
)

// faults.go is the network's self-healing layer: it interprets
// fault-injection plans (internal/faults), tears down the connections a
// failed link breaks — releasing every VC, channel mapping, credit and
// bandwidth reservation hop by hop — and re-establishes them on a
// surviving path with bounded, jittered exponential-backoff re-searches,
// degrading to a best-effort flow (or abandoning the session) when the
// surviving fabric cannot re-admit the stream. Routing state (EPB
// distance tables, the up*/down* tree) is recomputed at every topology
// transition, in the spirit of Autonet's reconfiguration protocol.
//
// Modeling simplifications, recorded here deliberately:
//   - Fault detection is immediate: the cycle a link fails, every
//     connection crossing it is known broken. Real routers detect via
//     ack/credit timeouts; that latency can be emulated by scheduling
//     the restoration probe later.
//   - A router failure is modeled as the failure of all its links. Flits
//     already buffered inside the failed router survive in place (the
//     router is isolated, not wiped); stream flits are purged with their
//     connection, best-effort packets wait for a live output.

// ApplyPlan validates a fault plan against the network's topology,
// installs its per-link impairments, and schedules every fault event
// (explicit and stochastically expanded) over [0, horizon) on the event
// engine. Call before Run; events fire as the clock reaches them.
//
// The expanded schedule is retained in the durable-event journal
// (durable.go), so a checkpoint taken mid-plan serializes the pending
// transitions as data and a restored fabric replays the remainder of
// the plan exactly.
func (n *Network) ApplyPlan(p *faults.Plan, horizon int64) error {
	tp := n.cfg.Topology
	if err := p.Validate(tp); err != nil {
		return err
	}
	for _, im := range p.Impairments {
		n.impair[[2]int{im.Node, im.Port}] = im
	}
	if len(p.Impairments) > 0 {
		n.wakeBlocked() // see routePackets
	}
	for _, ev := range p.Schedule(tp, horizon) {
		idx := int64(len(n.faultSchedule))
		n.faultSchedule = append(n.faultSchedule, ev)
		n.scheduleDurable(ev.Cycle, durFault, idx, 0)
	}
	return nil
}

// FailLink takes the link at (nodeID, port) down now: flits in flight on
// it are lost, connections crossing it are torn down (and queued for
// restoration per the fault policy), and the routing tables are rebuilt
// around the failure. Failing an already-down or unwired link is a no-op.
func (n *Network) FailLink(nodeID, port int) error {
	tp := n.cfg.Topology
	if nodeID < 0 || nodeID >= tp.Nodes || port < 0 || port >= tp.Ports || tp.Wired(nodeID, port) < 0 {
		return fmt.Errorf("network: FailLink(%d,%d) names no wired link", nodeID, port)
	}
	if !tp.LinkUp(nodeID, port) {
		return nil
	}
	n.failLink(nodeID, port)
	n.afterTransition()
	return nil
}

// RestoreLink brings the link at (nodeID, port) back up and rebuilds the
// routing tables so new searches may use it. Restoring an up link is a
// no-op. Broken connections in backoff find the link on their next retry.
func (n *Network) RestoreLink(nodeID, port int) error {
	tp := n.cfg.Topology
	if nodeID < 0 || nodeID >= tp.Nodes || port < 0 || port >= tp.Ports || tp.Wired(nodeID, port) < 0 {
		return fmt.Errorf("network: RestoreLink(%d,%d) names no wired link", nodeID, port)
	}
	if tp.LinkUp(nodeID, port) {
		return nil
	}
	tp.SetLinkUp(nodeID, port, true)
	n.m.FaultsRepaired++
	n.logEvent(SessionEvent{Kind: "link-up", Conn: flit.InvalidConn, Node: nodeID, Port: port})
	n.recordFlight(nodeID, evLinkUp, int32(port), int32(tp.Wired(nodeID, port)), 0)
	n.afterTransition()
	n.schedulePromotion()
	return nil
}

// FailRouter fails every wired link of nodeID — the whole-router fault
// model. The routing rebuild happens once, after all links are down.
func (n *Network) FailRouter(nodeID int) error {
	tp := n.cfg.Topology
	if nodeID < 0 || nodeID >= tp.Nodes {
		return fmt.Errorf("network: FailRouter(%d) out of range", nodeID)
	}
	n.logEvent(SessionEvent{Kind: "router-down", Conn: flit.InvalidConn, Node: nodeID, Port: -1})
	for p := 0; p < tp.Ports; p++ {
		if tp.Wired(nodeID, p) >= 0 && tp.LinkUp(nodeID, p) {
			n.failLink(nodeID, p)
		}
	}
	n.afterTransition()
	return nil
}

// RestoreRouter brings every wired link of nodeID back up.
func (n *Network) RestoreRouter(nodeID int) error {
	tp := n.cfg.Topology
	if nodeID < 0 || nodeID >= tp.Nodes {
		return fmt.Errorf("network: RestoreRouter(%d) out of range", nodeID)
	}
	n.logEvent(SessionEvent{Kind: "router-up", Conn: flit.InvalidConn, Node: nodeID, Port: -1})
	restored := false
	for p := 0; p < tp.Ports; p++ {
		if tp.Wired(nodeID, p) >= 0 && !tp.LinkUp(nodeID, p) {
			tp.SetLinkUp(nodeID, p, true)
			n.m.FaultsRepaired++
			n.logEvent(SessionEvent{Kind: "link-up", Conn: flit.InvalidConn, Node: nodeID, Port: p})
			n.recordFlight(nodeID, evLinkUp, int32(p), int32(tp.Wired(nodeID, p)), 0)
			restored = true
		}
	}
	if restored {
		n.afterTransition()
		n.schedulePromotion()
	}
	return nil
}

// failLink is FailLink without the routing rebuild, so FailRouter can
// batch several link failures into one transition.
func (n *Network) failLink(nodeID, port int) {
	tp := n.cfg.Topology
	peer := tp.Wired(nodeID, port)
	peerPort := tp.WiredPeer(nodeID, port)
	tp.SetLinkUp(nodeID, port, false)
	n.m.FaultsInjected++
	n.logEvent(SessionEvent{Kind: "link-down", Conn: flit.InvalidConn, Node: nodeID, Port: port})
	n.recordFlight(nodeID, evLinkDown, int32(port), int32(peer), 0)

	// Flits in flight on either direction of the link are lost. Stream
	// flits belong to connections about to be broken — their bookkeeping
	// is settled wholesale by breakConn; a best-effort flit must release
	// the VC it had reserved at the receiver.
	n.purgePipe(nodeID, port, peer, peerPort)
	n.purgePipe(peer, peerPort, nodeID, port)

	// Best-effort packets already routed toward the dead link re-route.
	n.clearStaleOutputs(nodeID, port)
	n.clearStaleOutputs(peer, peerPort)

	// Tear down every connection whose path crosses the link, in either
	// direction. Degraded connections are skipped explicitly: their Path
	// is the stale record of the guaranteed route they lost, already
	// fully released — matching on it would double-release.
	for _, c := range n.conns {
		if c.closed || c.broken || c.Degraded {
			continue
		}
		for _, hop := range c.Path {
			if (hop.Node == nodeID && hop.Port == port) || (hop.Node == peer && hop.Port == peerPort) {
				n.breakConn(c, fmt.Sprintf("link %d.%d down", nodeID, port))
				break
			}
		}
	}
}

// afterTransition rebuilds routing state for the surviving topology,
// dumps the flight recorders to the configured sink, and, in paranoid
// mode, audits the global resource invariants.
func (n *Network) afterTransition() {
	n.dists.Recompute(n.cfg.Topology)
	n.ud.Rebuild()
	n.wakeBlocked()
	n.dumpFlightOnFault()
	n.mustInvariants()
}

// purgePipe drops every flit in flight from (nodeID, port) toward the
// receiver at (peer, peerPort).
func (n *Network) purgePipe(nodeID, port, peer, peerPort int) {
	lane := &n.nodes[nodeID].out[port].flits
	for _, e := range lane.Pending() {
		lf := e.V
		n.m.FaultFlitsLost++
		if lf.f.Class == flit.ClassBestEffort || lf.f.Class == flit.ClassControl {
			// The packet dies here; free the input VC it had reserved at
			// the receiver.
			n.nodes[peer].Mems[peerPort].Release(lf.vc)
		}
		n.pool.Put(lf.f)
	}
	lane.Reset()
	// Not needed for safety: emptying the lane can only leave the peer's
	// wake entry early. It re-derives the entry so the table stays equal
	// to the scan (TestWakeTableMatchesScan), at the price of one early
	// cycle and calendar rebuild at the peer per failed link.
	n.touch(peer)
}

// clearStaleOutputs un-routes best-effort packets at nodeID whose chosen
// output is the dead port; the routing unit re-routes them next cycle
// over the surviving up*/down* tree.
func (n *Network) clearStaleOutputs(nodeID, port int) {
	nd := n.nodes[nodeID]
	for _, mem := range nd.Mems {
		reserved := mem.ReservedVector()
		for vc := reserved.NextSet(0); vc >= 0; vc = reserved.NextSet(vc + 1) {
			if st := mem.State(vc); st.Class == flit.ClassBestEffort && st.Output == port {
				mem.SetOutput(vc, -1)
			}
		}
	}
}

// breakConn tears a fault-broken connection down hop by hop: the source
// interface queue and every in-flight or buffered flit of the connection
// are purged, in-flight credits for its VCs are cancelled, and each
// hop's VC, channel mapping, upstream pointer, shadow credits and output
// bandwidth are released. Afterwards the connection holds no resources;
// restoration (or degradation) is scheduled per the fault policy.
func (n *Network) breakConn(c *Conn, reason string) {
	if c.closed || c.broken || c.Degraded {
		return
	}
	// Without this, installPath's restart of the source at restoration would
	// silently discard the cycles the source's node slept through.
	n.catchUpSource(c)
	c.broken = true
	c.open = false
	c.brokenAt = n.now
	n.m.ConnsBroken++
	n.logEvent(SessionEvent{Kind: "conn-broken", Conn: c.ID, Node: c.Src, Port: -1, Detail: reason})
	n.recordFlight(c.Src, evConnBroken, int32(c.Dst), -1, int64(c.ID))

	// Source-interface queue: flits not yet in the fabric are dropped.
	n.m.FaultFlitsLost += int64(c.ni.Queue.Len())
	for c.ni.Queue.Len() > 0 {
		n.pool.Put(c.ni.Queue.Pop())
	}

	// In-flight flits of this connection on any pipe along its path.
	for _, hop := range c.Path {
		n.nodes[hop.Node].out[hop.Port].flits.Filter(func(lf linkFlit) bool {
			if lf.f.Conn == c.ID {
				n.m.FaultFlitsLost++
				n.pool.Put(lf.f)
				return false
			}
			return true
		})
	}

	// In-flight credit returns targeting the connection's VCs: after the
	// shadow reset below those slots are full again, and a late Return
	// would overflow the protocol's accounting. Credits targeting hop i
	// are emitted by the node at hop i+1 when it drains that VC, so they
	// can only sit in that node's outbound credit lane for that port.
	for i := 0; i+1 < len(c.VCs); i++ {
		target := upRef{node: int32(c.Nodes[i]), port: int16(c.VCs[i].Port), vc: int16(c.VCs[i].VC)}
		lane := &n.nodes[c.Nodes[i+1]].out[c.VCs[i+1].Port].credits
		lane.Filter(func(to upRef) bool { return to != target })
	}

	// Hop-by-hop release: drain buffered flits and reset the shadow
	// credit view (the purges above guarantee no credit is still in
	// flight for these VCs), then release the path resources exactly as
	// a graceful close would.
	for i, ref := range c.VCs {
		x := n.nodes[c.Nodes[i]]
		for x.Mems[ref.Port].Len(ref.VC) > 0 {
			n.pool.Put(x.Mems[ref.Port].Pop(ref.VC))
			n.m.FaultFlitsLost++
		}
		x.Credits[ref.Port].Reset(ref.VC)
		// Every router on the path lost buffered flits, staged lane
		// entries or (the first) a source.
		n.touch(c.Nodes[i])
	}
	n.releasePath(c)

	if n.cfg.Fault.Restore {
		n.scheduleRestore(c)
	} else {
		n.abandon(c)
	}
}

// scheduleRestore journals the first re-establishment attempt for a
// broken connection: it fires next cycle, and each failure backs off
// exponentially with jitter until MaxRetries additional attempts have
// been spent (restoreAttempt, durable.go).
func (n *Network) scheduleRestore(c *Conn) {
	n.scheduleDurable(n.now+1, durRestore, int64(c.ID), 0)
}

// abandon gives up on restoring a broken connection: with Degrade set it
// becomes a best-effort packet flow at the same mean rate (jitter bounds
// are forfeit but the session survives); otherwise it is lost.
//
// State-flag invariant: a degraded connection is Degraded && !broken.
// The broken flag is cleared here so exactly one of {open, broken,
// Degraded, lost, closed} describes a connection's lifecycle stage —
// promotion (promote.go) relies on this to never revive a conn that is
// still mid-teardown, and Close's branch ordering stops being
// load-bearing. A lost connection keeps broken set: it is terminal and
// holds nothing, and the flag records how it died.
func (n *Network) abandon(c *Conn) {
	if n.cfg.Fault.Degrade {
		c.Degraded = true
		c.broken = false
		n.m.ConnsDegraded++
		n.degradedLive++
		// The guaranteed-bandwidth charge is returned to the tenant's
		// budget: the session continues, but only as best-effort. The
		// session count stays charged until the session closes or is lost.
		n.tenants.ReleaseGuaranteed(c.Tenant, n.demandFor(c.Spec).Alloc)
		bf := &beFlow{src: c.Src, dst: c.Dst, conn: c.ID}
		bf.ni.Source = traffic.NewCBRSource(n.cfg.Link, c.Spec.Rate, 0)
		n.addBEFlow(bf)
		n.dropSrcConn(c)
		n.logEvent(SessionEvent{Kind: "conn-degraded", Conn: c.ID, Node: c.Src, Port: -1,
			Detail: "restoration failed; continuing best-effort"})
		n.recordFlight(c.Src, evConnDegraded, int32(c.Dst), -1, int64(c.ID))
		return
	}
	c.lost = true
	n.dropSrcConn(c)
	n.m.ConnsLost++
	n.tenants.ReleaseGuaranteed(c.Tenant, n.demandFor(c.Spec).Alloc)
	n.tenants.ReleaseSession(c.Tenant)
	n.logEvent(SessionEvent{Kind: "conn-lost", Conn: c.ID, Node: c.Src, Port: -1,
		Detail: "restoration failed; session dropped"})
	n.recordFlight(c.Src, evConnLost, int32(c.Dst), -1, int64(c.ID))
}
