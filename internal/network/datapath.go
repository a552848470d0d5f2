package network

import (
	"fmt"

	"mmr/internal/flit"
	"mmr/internal/flow"
	"mmr/internal/metrics"
	"mmr/internal/routing"
	"mmr/internal/sched"
	"mmr/internal/traffic"
	"mmr/internal/vcm"
)

// The flit cycle is three passes over the nodes that have work — all
// deliver, then all schedule, then all commit — run one after the other
// on the caller's goroutine (docs/performance.md, "Why the cycle is
// serial"). The phase contract: within a pass no node reads what another
// node writes in that same pass, so the order the nodes are visited in
// cannot change the result (TestPassOrderIndependent steps them backwards
// and compares bytes). Every effect that crosses nodes is written in one
// pass and read in a later one — through a single-writer staging lane
// (lanes.go), or directly where the reader's pass is over.
//
//	deliver   (receiver-driven) round boundary (Core.BeginCycle); drain
//	          inbound credit lanes into the local shadow; drain inbound
//	          flit lanes into the local VCMs (Core.Enqueue), applying link
//	          impairments with the receiver's RNG stream. An impairment
//	          drop releases the dead packet's VC (node-local), and the
//	          credit it synthesizes is staged node-locally: its lane is
//	          being drained in this pass.
//	schedule  route buffered best-effort packets (cross-node *reads* of
//	          neighbor free-VC counts only); link scheduling and switch
//	          arbitration over local state (Core.Nominate, Core.Arbitrate);
//	          resolve each grant to a target VC — a packet picks a free VC
//	          at the next router by reading that router's memory. Nothing
//	          mutates a VC reservation in this pass, so the pick stays
//	          valid.
//	commit    (sender-driven) flush staged drop credits; execute grants —
//	          pop (Core.Pop), return credits onto own lanes, append flits
//	          to own pipes, eject into the local stats shard, and reserve
//	          the VC a forwarded packet picked at the next router; inject
//	          from sources homed here. Two writes cross nodes. One is that
//	          reservation: the VC was free at schedule, commit passes only
//	          *free* other VCs of that memory, and the memory's input port
//	          has this node as its only wired upstream, so nothing else
//	          reads or writes that VC's reservation in this pass. The other
//	          is the receiver's inbound bit set with every lane push
//	          (notePush): an OR, so commutative, of a bit only this node
//	          sets, read only by a later deliver pass.
//
// Fault transitions fire on the event path between cycles, never
// mid-cycle.

// FlowID identifies a best-effort packet flow registered with
// AddBestEffortFlow. IDs start at 1 (0 is never issued, so it can serve
// as an "unset" sentinel in wire protocols) and are never reused.
type FlowID int64

// beFlow is a best-effort packet flow between two hosts.
type beFlow struct {
	// id is the flow's owner handle. Every flow gets one, so a daemon
	// that shed an admission request to a best-effort fallback can later
	// retire exactly that flow (CloseFlow) instead of leaking an
	// immortal generator until process exit.
	id       FlowID
	src, dst int
	// conn is the degraded connection this flow substitutes for, or
	// flit.InvalidConn for a standalone flow. Closing a degraded
	// connection retires its flow by this conn ID — without it, every
	// degraded session would leak its fallback generator and a
	// long-lived fabric would drown in fallback traffic.
	conn flit.ConnID
	ni   traffic.Injector // generator and interface queue at the src host
}

// AddBestEffortFlow injects Poisson best-effort packets (one flit each,
// §3.4) from the host at src to the host at dst at the given mean rate in
// packets per cycle. The generator is bound to the source node's RNG
// stream so injection does not depend on what other nodes draw. The rate
// is at most 1, what the host link carries. The returned FlowID is the
// owner handle for CloseFlow.
func (n *Network) AddBestEffortFlow(src, dst int, packetsPerCycle float64) (FlowID, error) {
	if src < 0 || src >= len(n.nodes) || dst < 0 || dst >= len(n.nodes) || src == dst {
		return 0, errBadEndpoints(src, dst)
	}
	if !(packetsPerCycle >= 0 && packetsPerCycle <= 1) {
		return 0, fmt.Errorf("network: best-effort rate %v packets a cycle is outside [0,1]", packetsPerCycle)
	}
	bf := &beFlow{src: src, dst: dst, conn: flit.InvalidConn}
	bf.ni.Source = traffic.NewBestEffortSource(n.nodes[src].rng, packetsPerCycle)
	n.addBEFlow(bf)
	return bf.id, nil
}

// addBEFlow registers a new flow: it gets its owner handle, starts
// ticking at the current cycle, and joins the global registry and its
// source node's injector list.
func (n *Network) addBEFlow(bf *beFlow) {
	n.nextFlowID++
	bf.id = n.nextFlowID
	bf.ni.Start(n.now)
	n.beFlows = append(n.beFlows, bf)
	n.nodes[bf.src].beSrc = append(n.nodes[bf.src].beSrc, bf)
	n.touch(bf.src)
}

// CloseFlow retires the standalone best-effort flow with the given ID:
// the generator stops and packets still queued at the source interface
// return to the pool; flits already in the fabric drain normally
// (best-effort packets hold no reserved resources). Fallback flows owned
// by a degraded connection are refused — close the connection instead,
// which retires its flow and settles the session state together.
func (n *Network) CloseFlow(id FlowID) error {
	for i, bf := range n.beFlows {
		if bf.id != id {
			continue
		}
		if bf.conn != flit.InvalidConn {
			return fmt.Errorf("network: flow %d is the fallback of degraded connection %d; close the connection", id, bf.conn)
		}
		n.removeBEFlowAt(i)
		return nil
	}
	return fmt.Errorf("network: no best-effort flow %d", id)
}

// Step advances the whole network by one flit cycle: session events
// fire, then the three passes run over the nodes whose wake-table entry
// has come (over every node with NoIdleSkip). Step always advances
// exactly one cycle; the whole-clock fast-forward across fully idle
// stretches lives in Run.
func (n *Network) Step() { n.cycle(0) }

// Run advances the network the given number of cycles. With gating on,
// cycles where the global active set is empty are elided entirely: the
// clock jumps to the earliest next wake-up — a pending session event or
// the earliest entry of the wake table — with the skipped cycles credited
// to the statistics so utilization and rate figures are identical to
// stepping through them.
func (n *Network) Run(cycles int64) {
	limit := n.now + cycles
	for n.now < limit {
		n.cycle(limit)
	}
}

// cycle is the one cycle body behind Step and Run: session events, active
// set, the three passes, the wake-table settle, the clock. When gating
// finds the active set empty and skipTo lies ahead, the cycle is elided
// instead: the clock jumps to the next wake-up at or before skipTo.
func (n *Network) cycle(skipTo int64) {
	t := n.now

	// Session-level events scheduled for this cycle (connection arrivals,
	// teardowns, fault transitions) fire first.
	n.events.Run(simTime(t))

	list := n.nodes
	if !n.cfg.NoIdleSkip {
		n.buildActive(t)
		if len(n.active) == 0 && skipTo > t {
			next := n.nextWake(t, skipTo)
			n.m.Cycles += next - t
			n.idleSkipped += next - t
			n.now = next
			return
		}
		list = n.active
	}
	for _, nd := range list {
		n.phaseDeliver(nd, t)
	}
	for _, nd := range list {
		n.phaseSchedule(nd, t)
	}
	for _, nd := range list {
		n.phaseCommit(nd, t)
	}
	if !n.cfg.NoIdleSkip {
		n.settle(t)
	}
	n.now++
	n.m.Cycles++
}

// FusedDrainCycles (always 0), SetWorkers and Shutdown (no-ops) are what is
// left of the fused drain kernel, which elided one empty-heap check per
// cycle, and of the worker pool: the cycle is serial. They stay only because
// perfbench compiles against them, and go with wl.fused_drain_share,
// wl.step_ns_per_cycle_w2 and wl.par_eff_w2.
func (n *Network) FusedDrainCycles() int64 { return 0 }
func (n *Network) SetWorkers(int)          {}
func (n *Network) Shutdown()               {}

// ResetStats discards accumulated statistics (warmup boundary). Metric
// shards reset with the sinks bound to them (router.Sink.Reset), so
// hot-path series (per-class histograms, grant counters) cover the same
// measurement window as the stats snapshot; mirrored series lose nothing —
// the next gather rewrites them. The setup and fault counters survive: they
// describe session-level behaviour, not the warmed-up datapath.
func (n *Network) ResetStats() {
	n.m.Cycles = 0
	for _, nd := range n.nodes {
		nd.stats.reset()
		nd.tstats.reset()
	}
}

// phaseDeliver is the receiver side of the cycle: node nd drains its
// inbound lanes — credits and flits its wired peers staged for it — in
// ascending port order: the pairs its inbound vector marks or, under
// NoIdleSkip, every wired one. All writes are nd-local (its shadow credits,
// its VCMs, its stats shard, its inbound bits); peers' lanes are advanced
// via the head index, which the owner only touches in its commit phase.
func (n *Network) phaseDeliver(nd *node, t int64) {
	nd.BeginCycle(t)

	// inboundAt: the earliest entry this pass leaves behind unmatured, for
	// the node's settle (wake.go). Entries pushed later this cycle are the
	// senders' to report.
	nd.inboundAt = flow.Never
	gated := !n.cfg.NoIdleSkip
	for i := 0; i < len(nd.in); i++ {
		if gated {
			if i = nd.inbound.NextSet(i); i < 0 {
				break
			}
		}
		at := n.deliverLanes(nd, &nd.in[i], t)
		if nd.inboundAt = min(nd.inboundAt, at); gated && at == flow.Never {
			nd.inbound.Clear(i) // both lanes empty: the next push sets it again
		}
	}
}

// deliverLanes drains what has matured by cycle t on the lane pair of nd's
// inbound edge e and returns the earliest entry left behind (flow.Never: none).
func (n *Network) deliverLanes(nd *node, e *inEdge, t int64) int64 {
	nd.lanesPolled++
	q := int(e.port)
	w := &n.wires[e.lane]

	// Credits our downstream neighbor returned for flits it drained, each
	// naming the VC it freed: the reverse mapping of port q names ours.
	for w.credits.Ready(t) {
		r := nd.cmap.Reverse(routing.VCRef{Port: q, VC: w.credits.Pop()})
		nd.Credits[r.Port].Return(r.VC)
	}
	at := w.credits.Settle()

	// Flits in flight toward input port q, applying the directed
	// link's impairments with this receiver's RNG stream: a dropped
	// flit is detected by CRC and discarded — a dropped packet dies
	// with its reserved VC released; a dropped stream flit's buffer
	// slot never fills, so its credit returns upstream immediately
	// (staged: the lane owner may be draining it this phase).
	if !w.flits.Ready(t) {
		return min(at, w.flits.NextAt())
	}
	im, impaired := n.impair[[2]int{int(e.peer), int(e.peerPort)}]
	for w.flits.Ready(t) {
		lf := w.flits.Pop()
		if impaired && im.DropProb > 0 && nd.rng.Float64() < im.DropProb {
			nd.stats.flitsDropped++
			nd.rec.Record(metrics.Event{Cycle: t, Code: evFlitDropped,
				Node: int16(nd.id), A: int32(q), B: int32(lf.vc), Aux: int64(lf.f.Conn)})
			if lf.f.Class == flit.ClassBestEffort || lf.f.Class == flit.ClassControl {
				nd.Mems[q].Release(lf.vc)
			} else {
				nd.dropCredits = append(nd.dropCredits, stagedCredit{port: q, at: t + n.cfg.LinkDelay, vc: lf.vc})
			}
			n.pool.Put(lf.f)
			continue
		}
		if impaired && im.CorruptProb > 0 && nd.rng.Float64() < im.CorruptProb {
			nd.stats.flitsCorrupted++
			nd.rec.Record(metrics.Event{Cycle: t, Code: evFlitCorrupted,
				Node: int16(nd.id), A: int32(q), B: int32(lf.vc), Aux: int64(lf.f.Conn)})
		}
		if !nd.Enqueue(q, lf.vc, lf.f, t) {
			panic("network: flow control violation — downstream VC full")
		}
	}
	return min(at, w.flits.Settle())
}

// phaseSchedule routes packets, nominates candidates, arbitrates the
// switch and resolves every grant to a target VC. Cross-node access is
// read-only (neighbor free-VC counts and FindFree scans); nothing in this
// phase mutates any VC reservation, so what a node reads of a neighbor
// does not depend on which of the two ran first.
func (n *Network) phaseSchedule(nd *node, t int64) {
	n.routePackets(nd)
	nd.Nominate(t, !n.cfg.NoIdleSkip)
	nd.Arbitrate()

	hp := n.cfg.hostPort()
	for _, in := range nd.Nominated {
		g := nd.Grants[in]
		nd.grantVC[in] = grantSkip
		if g == sched.NoGrant {
			continue
		}
		cand := nd.Cands[in][g]
		mem := nd.Mems[in]
		isPacket := cand.Phase == sched.PhaseBestEffort || cand.Phase == sched.PhaseControl

		switch {
		case cand.Output == hp:
			nd.grantVC[in] = grantEject
		case !n.cfg.Topology.LinkUp(nd.id, cand.Output):
			// The chosen output died since routing: un-route packets so
			// they pick a surviving port next cycle. (Stream VCs cannot
			// reach here — a failure tears their connection down before
			// the next transmit.)
			if isPacket {
				mem.SetOutput(cand.VC, -1)
				nd.ms.Inc(n.nm.deadOutput)
			}
		case isPacket:
			// VCT: pick a VC at the next router now (§3.4); skip the
			// grant if none is free this cycle. executeGrants reserves
			// it (commit phase).
			nb := n.cfg.Topology.Neighbor(nd.id, cand.Output)
			pp := n.cfg.Topology.PeerPort(nd.id, cand.Output)
			targetVC := n.nodes[nb].Mems[pp].PickFree(nd.rng)
			if targetVC < 0 {
				nd.ms.Inc(n.nm.claimFailed)
				continue
			}
			if !n.ud.IsUp(nd.id, cand.Output) {
				mem.Peek(cand.VC).WentDown = true
			}
			nd.grantVC[in] = targetVC
		default:
			// Stream: the reserved next-hop VC from the channel mapping.
			out := nd.cmap.Direct(routing.VCRef{Port: in, VC: cand.VC})
			if out == routing.Invalid {
				panic("network: stream VC without channel mapping")
			}
			nd.grantVC[in] = out.VC
		}
	}
}

// phaseCommit is the sender side of the cycle: flush staged drop credits,
// execute this node's grants onto its own lanes and inject from the
// sources homed here. Every write is to nd-local state or an nd-owned
// lane, but for the downstream VC a forwarded packet reserves.
func (n *Network) phaseCommit(nd *node, t int64) {
	// Drop-synthesized credits staged during delivery go out first (drop
	// credits precede this cycle's transmit credits on the same lane).
	if len(nd.dropCredits) > 0 {
		for _, sc := range nd.dropCredits {
			nd.out[sc.port].credits.Push(sc.at, sc.vc)
			n.notePush(nd, sc.port)
		}
		nd.dropCredits = nd.dropCredits[:0]
	}

	n.executeGrants(nd, t)
	n.injectStreams(nd, t)
	n.injectPackets(nd, t)
}

// executeGrants performs the transfers resolved in the schedule phase.
func (n *Network) executeGrants(nd *node, t int64) {
	for _, in := range nd.Nominated {
		targetVC := nd.grantVC[in]
		if targetVC == grantSkip {
			continue // no grant, or one phaseSchedule abandoned
		}
		cand, f := nd.Pop(in, t)
		nd.ms.Inc(n.nm.grantsByPort[cand.Output])
		isPacket := cand.Phase == sched.PhaseBestEffort || cand.Phase == sched.PhaseControl
		if !isPacket && targetVC >= 0 {
			if !nd.Credits[in].Consume(cand.VC) {
				panic("network: scheduler granted a VC without credits")
			}
		}
		// Free the local slot: return a credit upstream (after the wire
		// delay), unless the VC holds a packet or a host interface feeds it.
		if !isPacket && in != n.cfg.hostPort() {
			nd.out[in].credits.Push(t+n.cfg.LinkDelay, cand.VC)
			n.notePush(nd, in)
		}
		if isPacket {
			// Single-flit packet: its VC frees entirely.
			nd.Mems[in].Release(cand.VC)
			n.noteFreed(nd, in)
		}

		if targetVC == grantEject {
			n.eject(nd, t, f)
			continue
		}
		if isPacket {
			// Reserve the VC picked in the schedule phase. The arriving
			// packet has no upstream to credit: its sender's VC is
			// already released (single-flit packets).
			rx := n.nodes[nd.outPeer[cand.Output]]
			pp := n.cfg.Topology.WiredPeer(nd.id, cand.Output)
			if !rx.Mems[pp].Reserve(targetVC, vcm.VCState{Conn: flit.InvalidConn, Class: f.Class, Output: -1}) {
				panic("network: picked VC no longer free at commit")
			}
		}
		nd.out[cand.Output].flits.Push(t+n.cfg.LinkDelay, linkFlit{vc: targetVC, f: f})
		n.notePush(nd, cand.Output)
		nd.stats.linkFlits++
	}
}

// eject delivers a flit to the local host: its life ends in this node's
// sink, a stream flit's delay attributed to its session's tenant too.
func (n *Network) eject(nd *node, t int64, f *flit.Flit) {
	delay := float64(t - f.CreatedAt)
	if f.Class.IsStream() {
		c := n.conns[f.Conn]
		nd.stats.sink.Stream(f.Class, int(c.dstSlot), delay)
		nd.tstats.observe(c.tenantSlot, delay)
	} else {
		nd.stats.sink.Packet(f.Class, delay)
	}
	n.pool.Put(f)
}

// catchUpSource replays c's source through every cycle before the
// current one (traffic.Injector.CatchUp): anything about to change how the
// source ticks (its rate) or restart it must first replay the gap the
// gated engine left it alone for. A stopped session has no such gap: its
// source is off in both engines, its last tick frozen where stopSource
// left it, and the cycles since were never forecast silent.
func (n *Network) catchUpSource(c *Conn) {
	if c.injecting() {
		c.ni.CatchUp(n.now - 1)
	}
}

// stopSource ends c's injection, first replaying the cycles its source
// slept through: what a stopped session records (the last tick, the
// source's accumulator) must not depend on when its node last happened to
// run.
func (n *Network) stopSource(c *Conn) {
	if c.open {
		n.catchUpSource(c)
		c.open = false
		n.touch(c.Src)
	}
}

// injectStreams moves source flits into the entry VCs of the connections
// whose source host sits on this node, for the sessions the source calendar
// hands over (traffic.Calendar.Visit: gated, those whose forecast has come
// due or whose interface queues flits; under NoIdleSkip, every one).
// Sources are bound to this node's RNG stream. srcConns is ID-ascending.
func (n *Network) injectStreams(nd *node, t int64) {
	nd.cal.Visit(t, n.cfg.NoIdleSkip, nd.srcConns, (*Conn).calendarKey, func(c *Conn, tick bool) {
		n.injectStream(nd, c, t, tick)
	})
}

// injectStream is one session's share of injectStreams: tick the source
// if asked to, then drain the interface queue into the entry VC. A closed
// or broken session has neither a source nor a queue.
func (n *Network) injectStream(nd *node, c *Conn, t int64, tick bool) {
	if c.closed || c.broken {
		return
	}
	if tick && c.injecting() {
		for k := c.ni.Arrivals(t); k > 0; k-- {
			f := n.pool.Get()
			f.Conn, f.Class, f.CreatedAt = c.ID, c.Spec.Class, t
			c.ni.Queue.Push(f)
			nd.stats.generated++
		}
	}
	hp, entry := n.cfg.hostPort(), c.VCs[0].VC
	mem := nd.Mems[hp]
	for c.ni.Queue.Len() > 0 && mem.Free(entry) > 0 {
		nd.Enqueue(hp, entry, c.ni.Queue.Pop(), t)
	}
}

// injectPackets places best-effort packets from the flows homed on this
// node into free VCs on its host port, for the flows the packet calendar
// hands over, as injectStreams does with the sessions. beSrc is
// FlowID-ascending.
func (n *Network) injectPackets(nd *node, t int64) {
	nd.pcal.Visit(t, n.cfg.NoIdleSkip, nd.beSrc, (*beFlow).calendarKey, func(bf *beFlow, tick bool) {
		n.injectPacketFlow(nd, bf, t, tick)
	})
}

// injectPacketFlow is one flow's share of injectPackets: tick the source
// if asked to, then place the queued packets while VCs are free — all of
// them need the same resource, so the first that finds none stops it.
func (n *Network) injectPacketFlow(nd *node, bf *beFlow, t int64, tick bool) {
	if tick {
		for k := bf.ni.Arrivals(t); k > 0; k-- {
			f := n.pool.Get()
			f.Conn, f.Class, f.CreatedAt, f.Dst = flit.InvalidConn, flit.ClassBestEffort, t, int32(bf.dst)
			bf.ni.Queue.Push(f)
			nd.stats.beGenerated++
		}
	}
	for bf.ni.Queue.Len() > 0 && nd.BufferPacket(n.cfg.hostPort(), -1, bf.ni.Queue.Peek(), t, nd.rng) {
		bf.ni.Queue.Pop()
	}
}

// routePackets runs the routing unit for buffered best-effort packets
// that have no output assignment yet: pick an up*/down* legal port
// (minimal first) whose downstream router has a free VC. Its worklist is the
// unrouted vectors of the memories in Busy, so it loads no record of a routed
// or stream VC. Neighbor state is read-only here. The flits it has to leave
// unrouted are counted in nd.blocked and their VCs marked in nd.stuck: they
// cannot move until a VC comes free at a neighbor or the routing changes,
// both of which report to the wake table and set nd.reroute (wake.go); until
// then they neither keep the node awake nor are tried again.
func (n *Network) routePackets(nd *node) {
	hp := n.cfg.hostPort()
	// A packet dropped on an impaired link frees its VC in the deliver
	// phase, for the senders to see in this same cycle's schedule phase:
	// too late to tell them. With impairments in force nothing counts as
	// blocked; NoIdleSkip, the reference, tries every packet every cycle.
	memo := !n.cfg.NoIdleSkip && len(n.impair) == 0
	if nd.reroute || !memo {
		if nd.blocked > 0 {
			nd.stuck.Reset()
		}
		nd.reroute = false
	}
	blocked := 0
	for p := nd.Busy.NextSet(0); p >= 0; p = nd.Busy.NextSet(p + 1) {
		mem := nd.Mems[p]
		unrouted := mem.Unrouted()
		for vc := unrouted.NextSet(0); vc >= 0; vc = unrouted.NextSet(vc + 1) {
			nd.routeVisited++
			if memo && nd.stuck.Test(p*n.cfg.VCs+vc) {
				blocked += mem.Len(vc)
				continue
			}
			head := mem.Peek(vc)
			nd.routeTried++
			dst := int(head.Dst)
			if dst == nd.id {
				mem.SetOutput(vc, hp)
				continue
			}
			nd.scratchPorts = n.ud.NextPorts(nd.id, dst, head.WentDown, nd.scratchPorts[:0])
			out := -1
			for _, q := range nd.scratchPorts {
				nb := n.cfg.Topology.Neighbor(nd.id, q)
				if n.nodes[nb].Mems[n.cfg.Topology.PeerPort(nd.id, q)].FreeVCs() > 0 {
					out = q
					break
				}
			}
			if out >= 0 {
				mem.SetOutput(vc, out)
			} else if memo {
				blocked += mem.Len(vc)
				nd.stuck.Set(p*n.cfg.VCs + vc)
			}
		}
	}
	nd.blocked = blocked
}
