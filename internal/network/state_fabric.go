package network

import (
	"math"
	"slices"

	"mmr/internal/checkpoint"
	"mmr/internal/flit"
	"mmr/internal/sim"
	"mmr/internal/traffic"
)

// state_fabric.go holds the checkpoint sections of fabric-wide state: link
// state, the session record and log, impairments, the fault schedule,
// tenant quotas, the connections and best-effort flows, and the event
// journal (state.go has the walk's order).

// linkState: which wired links are up. The link list itself is geometry
// (the config hash covers it); only its length is checked.
func (n *Network) linkState(c *codec) {
	tp := n.cfg.Topology
	c.Fixed(len(tp.Links), "links")
	for _, l := range tp.Links {
		up := tp.LinkUp(l.A, l.APort)
		c.Bool(&up)
		if c.Decoding() && c.Err() == nil && up != tp.LinkUp(l.A, l.APort) {
			tp.SetLinkUp(l.A, l.APort, up)
		}
	}
}

// netStatsState: the session record — the clock, the session counters in
// table order, then the setup and restoration accumulators.
func (n *Network) netStatsState(c *codec) {
	m := &n.m
	c.I64(&m.Cycles)
	for _, s := range m.sessionCounters() {
		c.I64(s.v)
	}
	c.acc(&m.SetupLatency)
	c.acc(&m.SetupBacktracks)
	c.acc(&m.RestoreLatency)
}

func (n *Network) sessionLogState(c *codec) {
	for i, k := 0, sized(c, &n.sessionLog, nil, 40, "session log"); i < k && c.Err() == nil; i++ {
		ev := &n.sessionLog[i]
		c.I64(&ev.Cycle)
		c.String(&ev.Kind)
		num(c, &ev.Conn)
		c.Int(&ev.Node)
		c.Int(&ev.Port)
		c.String(&ev.Detail)
	}
}

// impairState: per-directed-link impairments in (node, port) order.
func (n *Network) impairState(c *codec) {
	radix := n.cfg.radix()
	var keys []int // node*radix + port, ascending
	for key := range n.impair {
		keys = append(keys, key[0]*radix+key[1])
	}
	slices.Sort(keys)
	for i, k := 0, c.Count(len(keys), "impairments"); i < k && c.Err() == nil; i++ {
		key := checkpoint.At(c.Codec, keys, i)
		im := n.impair[[2]int{key / radix, key % radix}] // decoding: the leaves read every field
		nodeIdx(c, &im.Node)
		portIdx(c, &im.Port)
		c.F64(&im.DropProb)
		c.F64(&im.CorruptProb)
		if c.Decoding() && c.Err() == nil {
			n.impair[[2]int{im.Node, im.Port}] = im
		}
	}
}

// faultScheduleState: the expanded fault plan durFault events index. A
// link that does not exist is refused where the transition is applied.
func (n *Network) faultScheduleState(c *codec) {
	for i, k := 0, sized(c, &n.faultSchedule, nil, 32, "fault schedule"); i < k && c.Err() == nil; i++ {
		ev := &n.faultSchedule[i]
		c.I64(&ev.Cycle)
		c.Int((*int)(&ev.Kind))
		c.Int(&ev.Node)
		c.Int(&ev.Port)
	}
}

// quotaState: the tenant quota table in name order, then the re-promotion
// generation. Usage is recomputed from the restored connections, so a
// tenant with usage but no quota is not listed.
func (n *Network) quotaState(c *codec) {
	var names []string // the tenants with a quota
	for _, name := range n.tenants.Names() {
		if _, has := n.tenants.Quota(name); has {
			names = append(names, name)
		}
	}
	for i, k := 0, c.CountOf(len(names), 20, "tenant quotas"); i < k && c.Err() == nil; i++ {
		name := checkpoint.At(c.Codec, names, i)
		c.String(&name)
		q, _ := n.tenants.Quota(name)
		c.Range(&q.MaxSessions, 0, math.MaxInt, "session quota")
		c.Range(&q.MaxGuaranteed, 0, math.MaxInt, "bandwidth quota")
		n.tenants.SetQuota(name, q)
	}
	c.I64(&n.promoteGen)
}

// connState: every connection ever opened, in ID order, carved from the
// arenas.
func (n *Network) connState(c *codec) {
	for i, k := 0, sized(c, &n.conns, nil, 64, "connections"); i < k && c.Err() == nil; i++ {
		if c.Decoding() {
			n.conns[i] = n.arena.conn()
			*n.conns[i] = Conn{ID: flit.ConnID(i), dstSlot: -1}
		}
		cn := n.conns[i]
		nodeIdx(c, &cn.Src)
		nodeIdx(c, &cn.Dst)
		c.String(&cn.Tenant)
		c.spec(&cn.Spec)
		for j, hops := 0, sized(c, &cn.Path, &n.arena.hops, 16, "path hops"); j < hops; j++ {
			nodeIdx(c, &cn.Path[j].Node)
			portIdx(c, &cn.Path[j].Port)
		}
		for j, vcs := 0, sized(c, &cn.VCs, &n.arena.vcs, 16, "path VCs"); j < vcs; j++ {
			c.vcRef(&cn.VCs[j])
		}
		for j, nodes := 0, sized(c, &cn.Nodes, &n.arena.nodes, 8, "path nodes"); j < nodes; j++ {
			nodeIdx(c, &cn.Nodes[j])
		}
		c.I64(&cn.SetupTime)
		c.Int(&cn.Backtracks)
		c.Int(&cn.Restores)
		c.Bool(&cn.Degraded)
		c.Bool(&cn.open)
		c.Bool(&cn.closed)
		c.Bool(&cn.broken)
		c.Bool(&cn.lost)
		c.I64(&cn.brokenAt)
		// A decoded source is built against the owning node's RNG as the
		// class implies, then overwritten. No constructor here draws
		// randomness, so the streams stay aligned until nodeState restores
		// the per-node RNG states.
		has := cn.ni.Source != nil
		c.Bool(&has)
		switch {
		case !c.Decoding() || !has:
		case cn.Spec.Class == flit.ClassVBR:
			cn.ni.Source = traffic.NewVBRSource(n.nodes[cn.Src].rng, n.cfg.Link, cn.Spec.Rate, cn.Spec.PeakRate, traffic.DefaultGoP())
		default:
			cn.ni.Source = traffic.NewCBRSource(n.cfg.Link, cn.Spec.Rate, 0)
		}
		c.injector(&cn.ni, cn.open, "connection", i)
		if c.Decoding() && c.Err() == nil {
			n.adoptConn(c, cn)
		}
	}
}

// adoptConn hands a decoded connection to the structures that list it.
func (n *Network) adoptConn(c *codec, cn *Conn) {
	// What the datapath and CheckInvariants index a live connection's
	// route by: one VC per router, one hop between each two, entered
	// through the source's host port.
	if live := !cn.closed && !cn.broken && !cn.Degraded; live &&
		(len(cn.Nodes) != len(cn.VCs) || len(cn.VCs) != len(cn.Path)+1 ||
			cn.Nodes[0] != cn.Src || cn.VCs[0].Port != n.cfg.hostPort()) {
		c.Failf("network: checkpoint connection %d is live but its route (%d routers, %d VCs, %d hops) is no path from node %d", cn.ID, len(cn.Nodes), len(cn.VCs), len(cn.Path), cn.Src)
		return
	}
	// Terminal connections (closed, degraded, lost) are pruned from the
	// per-node injector lists on the live fabric; mirror that here so the
	// restored scan lists — and therefore per-cycle cost — match the
	// fabric that wrote the checkpoint.
	if !cn.terminal() {
		n.nodes[cn.Src].srcConns = append(n.nodes[cn.Src].srcConns, cn)
	}
	// Trackers grow only at the ejecting node, and telemetry slots on a
	// tenant's first session. Replaying connections in ID order reproduces
	// the per-destination tracker slots, and the tenant slots, the live
	// admission path assigned as each connection was accepted.
	n.assignTrackerSlot(cn)
}

// flowState: the best-effort flows, in registry order.
func (n *Network) flowState(c *codec) {
	c.I64((*int64)(&n.nextFlowID))
	for i, k := 0, sized(c, &n.beFlows, nil, 64, "best-effort flows"); i < k && c.Err() == nil; i++ {
		if c.Decoding() {
			n.beFlows[i] = &beFlow{}
		}
		bf := n.beFlows[i]
		c.I64((*int64)(&bf.id))
		nodeIdx(c, &bf.src)
		nodeIdx(c, &bf.dst)
		connIdx(c, &bf.conn)
		home := n.nodes[bf.src]
		// Generator tag: 0 Poisson, 1 a degraded connection's CBR fallback.
		var tag uint8
		if _, cbr := bf.ni.Source.(*traffic.CBRSource); cbr {
			tag = 1
		}
		c.U8(&tag)
		switch {
		case !c.Decoding():
		case tag == 0:
			// The constructor draws one inter-arrival from the node RNG;
			// the draw is undone when nodeState restores the RNG, and the
			// state below reinstates the true next arrival.
			bf.ni.Source = traffic.NewBestEffortSource(home.rng, 1)
		case tag == 1:
			bf.ni.Source = traffic.NewCBRSource(n.cfg.Link, 0, 0)
		default:
			c.Failf("network: checkpoint best-effort flow %d has generator tag %d", i, tag)
		}
		c.injector(&bf.ni, true, "best-effort flow", i)
		if c.Decoding() {
			home.beSrc = append(home.beSrc, bf)
		}
	}
}

// journalState: the event engine's counter, the durable-event journal in
// insertion order, and the pending OpenWithRetry requests in ID order,
// each with its tenant.
func (n *Network) journalState(c *codec) {
	fired := n.events.Fired()
	c.U64(&fired)
	engineNow := max(n.now-1, 0)
	if c.Decoding() && c.Err() == nil {
		n.events.SetClock(sim.Time(engineNow), fired)
	}

	seqs := sortedKeys(n.durables)
	for i, k := 0, c.Count(len(seqs), "durable events"); i < k && c.Err() == nil; i++ {
		var ev durableEvent
		if !c.Decoding() {
			ev = *n.durables[seqs[i]]
		}
		c.I64(&ev.at)
		c.U8((*uint8)(&ev.kind))
		c.I64(&ev.a)
		c.I64(&ev.b)
		if !c.Decoding() || c.Err() != nil {
			continue
		}
		// What fireDurable and the event engine take on trust: a deadline
		// not in the engine's past, and an operand inside what the kind
		// indexes. An unknown kind indexes nothing, so no operand fits.
		limits := [...]int{durFault: len(n.faultSchedule), durRestore: len(n.conns), durOpenRetry: math.MaxInt, durPromote: math.MaxInt}
		if int(ev.kind) >= len(limits) || ev.at < engineNow || ev.a < 0 || ev.a >= int64(limits[ev.kind]) {
			c.Failf("network: checkpoint journal event (kind %d, operand %d, cycle %d) is out of range", ev.kind, ev.a, ev.at)
			continue
		}
		n.scheduleDurable(ev.at, ev.kind, ev.a, ev.b)
	}

	ids := sortedKeys(n.openRetries)
	for i, k := 0, c.CountOf(len(ids), 64, "open retries"); i < k && c.Err() == nil; i++ {
		id := checkpoint.At(c.Codec, ids, i)
		or := n.openRetries[id]
		if c.Decoding() {
			or = &openRetry{}
		}
		c.I64(&id)
		// The request's endpoints are checked where it is attempted.
		c.Int(&or.req.Src)
		c.Int(&or.req.Dst)
		c.String(&or.req.Tenant)
		c.spec(&or.req.Spec)
		c.Int(&or.attempt)
		if c.Decoding() && c.Err() == nil {
			n.openRetries[id] = or
		}
	}
	c.I64(&n.nextOpenID)
}
