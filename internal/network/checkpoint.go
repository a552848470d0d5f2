package network

import (
	"fmt"
	"math"
	"sort"

	"mmr/internal/admission"
	"mmr/internal/checkpoint"
	"mmr/internal/faults"
	"mmr/internal/flit"
	"mmr/internal/metrics"
	"mmr/internal/routing"
	"mmr/internal/sched"
	"mmr/internal/sim"
	"mmr/internal/stats"
	"mmr/internal/traffic"
	"mmr/internal/vcm"
)

// checkpoint.go serializes the complete mutable state of a Network and
// restores it into a freshly built one, bit-exactly: a restored fabric
// stepped to cycle M produces the same statistics, metrics, session log
// and flight-recorder contents as the uninterrupted run, for any worker
// count and gating mode (the config hash deliberately excludes both).
//
// What is serialized: the clock, every RNG stream, link up/down state,
// session statistics, the session log, impairments, the expanded fault
// schedule, every connection (records, source state, interface queue),
// best-effort flows, per-router state (VC reservations, buffered flits,
// shadow credits, upstream pointers, admission registers, scheduler
// election + counters, staging lanes, channel mappings, metric shards,
// flight recorders), and the durable-event journal.
//
// What is deliberately NOT serialized, because it is recomputed or
// provably empty at a cycle boundary: routing tables (recomputed from
// link state), VCM status bit vectors (rebuilt by RestoreState/Push),
// per-cycle scheduling scratch (cands/grants/grantVC), staged drop
// credits and claim slots (always empty/-1 between cycles — enforced),
// flit pools (pooling is unobservable), and the idle-skip diagnostic
// counter.

// EncodeState serializes the network's full mutable state. It must be
// called between cycles (never from inside an event or phase) and
// refuses to run while state that cannot round-trip is in flight: an
// active establishment probe, or a pending event that is not in the
// durable journal (anything scheduled via Network.Schedule directly).
func (n *Network) EncodeState() ([]byte, error) {
	if n.activeProbes > 0 {
		return nil, fmt.Errorf("network: cannot checkpoint with %d establishment probes in flight", n.activeProbes)
	}
	if p := n.events.Pending(); p != len(n.durables) {
		return nil, fmt.Errorf("network: cannot checkpoint: %d pending events but only %d in the durable journal (events scheduled via Schedule hold closures a checkpoint cannot serialize)", p, len(n.durables))
	}
	for _, nd := range n.nodes {
		if len(nd.dropCredits) != 0 {
			return nil, fmt.Errorf("network: cannot checkpoint mid-cycle: node %d has staged drop credits", nd.id)
		}
		for p := range nd.claim {
			if nd.claim[p].vc != -1 {
				return nil, fmt.Errorf("network: cannot checkpoint mid-cycle: node %d has a staged VC claim on port %d", nd.id, p)
			}
		}
	}
	if err := n.quiesce(); err != nil {
		return nil, err
	}

	// One allocation, not a doubling series from empty: a fabric's payload
	// is about as long as its last one, and on the first call at least a
	// byte per virtual channel.
	e := checkpoint.NewEncoder()
	if n.lastPayload == 0 {
		n.lastPayload = len(n.nodes) * n.cfg.radix() * n.cfg.VCs
	}
	e.Grow(n.lastPayload + n.lastPayload/16)
	e.I64(n.now)
	encodeRNG(e, n.rng.State())

	tp := n.cfg.Topology
	e.Int(len(tp.Links))
	for _, l := range tp.Links {
		e.Bool(tp.LinkUp(l.A, l.APort))
	}

	m := &n.m
	e.I64(m.cycles)
	e.I64(m.setupAttempts)
	e.I64(m.setupAccepted)
	e.I64(m.setupRejected)
	e.I64(m.setupRetries)
	e.I64(m.closed)
	encodeAcc(e, &m.setupLatency)
	encodeAcc(e, &m.setupBacktracks)
	e.I64(m.faultsInjected)
	e.I64(m.faultsRepaired)
	e.I64(m.faultFlitsLost)
	e.I64(m.connsBroken)
	e.I64(m.connsRestored)
	e.I64(m.connsDegraded)
	e.I64(m.connsLost)
	encodeAcc(e, &m.restoreLatency)

	e.Int(len(n.sessionLog))
	for _, ev := range n.sessionLog {
		e.I64(ev.Cycle)
		e.String(ev.Kind)
		e.I64(int64(ev.Conn))
		e.Int(ev.Node)
		e.Int(ev.Port)
		e.String(ev.Detail)
	}

	impairKeys := make([][2]int, 0, len(n.impair))
	for k := range n.impair {
		impairKeys = append(impairKeys, k)
	}
	sort.Slice(impairKeys, func(i, j int) bool {
		if impairKeys[i][0] != impairKeys[j][0] {
			return impairKeys[i][0] < impairKeys[j][0]
		}
		return impairKeys[i][1] < impairKeys[j][1]
	})
	e.Int(len(impairKeys))
	for _, k := range impairKeys {
		im := n.impair[k]
		e.Int(im.Node)
		e.Int(im.Port)
		e.F64(im.DropProb)
		e.F64(im.CorruptProb)
	}

	e.Int(len(n.faultSchedule))
	for _, ev := range n.faultSchedule {
		e.I64(ev.Cycle)
		e.Int(int(ev.Kind))
		e.Int(ev.Node)
		e.Int(ev.Port)
	}

	e.Int(len(n.conns))
	for _, c := range n.conns {
		e.Int(c.Src)
		e.Int(c.Dst)
		encodeSpec(e, c.Spec)
		e.Int(len(c.Path))
		for _, h := range c.Path {
			e.Int(h.Node)
			e.Int(h.Port)
		}
		e.Int(len(c.VCs))
		for _, r := range c.VCs {
			e.Int(r.Port)
			e.Int(r.VC)
		}
		e.Int(len(c.Nodes))
		for _, nodeID := range c.Nodes {
			e.Int(nodeID)
		}
		e.I64(c.SetupTime)
		e.Int(c.Backtracks)
		e.Int(c.Restores)
		e.Bool(c.Degraded)
		e.Bool(c.open)
		e.Bool(c.closed)
		e.Bool(c.broken)
		e.Bool(c.lost)
		e.I64(c.brokenAt)
		e.I64(c.lastTick)
		e.I64(c.nextDue)
		e.I64(c.nextSeq)
		e.Bool(c.src != nil)
		if c.src != nil {
			if err := encodeConnSource(e, c); err != nil {
				return nil, err
			}
		}
		e.Int(c.niQueue.Len())
		for i := 0; i < c.niQueue.Len(); i++ {
			if err := encodeFlit(e, c.niQueue.At(i)); err != nil {
				return nil, err
			}
		}
	}

	e.I64(int64(n.nextFlowID))
	e.Int(len(n.beFlows))
	for _, bf := range n.beFlows {
		e.I64(int64(bf.id))
		e.Int(bf.src)
		e.Int(bf.dst)
		e.I64(int64(bf.conn))
		switch g := bf.gen.(type) {
		case *traffic.BestEffortSource:
			st := g.ExportState()
			e.U8(0)
			e.F64(st.Rate)
			e.F64(st.Next)
		case *traffic.CBRSource:
			st := g.ExportState()
			e.U8(1)
			e.F64(st.PerCycle)
			e.F64(st.Acc)
		default:
			return nil, fmt.Errorf("network: best-effort flow has unserializable generator %T", bf.gen)
		}
		e.I64(bf.lastTick)
		e.I64(bf.nextDue)
		e.Int(bf.niQueue.Len())
		for i := 0; i < bf.niQueue.Len(); i++ {
			if err := encodeFlit(e, bf.niQueue.At(i)); err != nil {
				return nil, err
			}
		}
	}

	radix := n.cfg.radix()
	for _, nd := range n.nodes {
		encodeRNG(e, nd.rng.State())
		e.I64(nd.pktSeq)
		e.I64(nd.lastRound)

		d := &nd.stats
		e.I64(d.generated)
		e.I64(d.delivered)
		e.I64(d.linkFlits)
		e.I64(d.beGenerated)
		e.I64(d.beDelivered)
		encodeAcc(e, &d.beLatency)
		e.I64(d.flitsDropped)
		e.I64(d.flitsCorrupted)

		tr := d.tracker
		e.Int(tr.NumConns())
		encodeAcc(e, tr.Delay())
		encodeAcc(e, tr.Jitter())
		for i := 0; i < tr.NumConns(); i++ {
			encodeAcc(e, tr.ConnDelay(i))
			encodeAcc(e, tr.ConnJitter(i))
			prev, seen := tr.ConnBaseline(i)
			e.F64(prev)
			e.Bool(seen)
		}

		for p := 0; p < radix; p++ {
			mem := nd.mems[p]

			inUse := 0
			for vc := 0; vc < n.cfg.VCs; vc++ {
				if mem.State(vc).InUse {
					inUse++
				}
			}
			e.Int(inUse)
			for vc := 0; vc < n.cfg.VCs; vc++ {
				st := mem.State(vc)
				if !st.InUse {
					continue
				}
				e.Int(vc)
				e.I64(int64(st.Conn))
				e.U8(uint8(st.Class))
				e.Int(st.Allocated)
				e.Int(st.Peak)
				e.Int(mem.Serviced(vc))
				e.Int(st.BasePriority)
				e.F64(st.Bias)
				e.F64(st.InterArrival)
				e.Int(st.Output)
			}

			buffered := 0
			for vc := 0; vc < n.cfg.VCs; vc++ {
				if mem.Len(vc) > 0 {
					buffered++
				}
			}
			e.Int(buffered)
			for vc := 0; vc < n.cfg.VCs; vc++ {
				ln := mem.Len(vc)
				if ln == 0 {
					continue
				}
				e.Int(vc)
				e.Int(ln)
				for i := 0; i < ln; i++ {
					if err := encodeFlit(e, mem.FlitAt(vc, i)); err != nil {
						return nil, err
					}
				}
			}

			spent := 0
			for vc := 0; vc < n.cfg.VCs; vc++ {
				if nd.shadow[p].Available(vc) != n.cfg.Depth {
					spent++
				}
			}
			e.Int(spent)
			for vc := 0; vc < n.cfg.VCs; vc++ {
				if avail := nd.shadow[p].Available(vc); avail != n.cfg.Depth {
					e.Int(vc)
					e.Int(avail)
				}
			}

			ups := 0
			for vc := 0; vc < n.cfg.VCs; vc++ {
				if nd.upstream[p][vc] != noUpstream {
					ups++
				}
			}
			e.Int(ups)
			for vc := 0; vc < n.cfg.VCs; vc++ {
				up := nd.upstream[p][vc]
				if up == noUpstream {
					continue
				}
				e.Int(vc)
				e.Int(int(up.node))
				e.Int(int(up.port))
				e.Int(int(up.vc))
			}

			a := nd.alloc[p]
			e.Int(a.Guaranteed())
			e.Int(a.PeakTotal())
			e.Int(a.Connections())

			excess, lc := nd.links[p].ExportState()
			e.Int(excess)
			e.I64(lc.Nominated)
			e.I64(lc.CreditStalled)
			e.I64(lc.RoundExhausted)
			e.I64(lc.BiasBoosted)

			pend := nd.pipes[p].pending()
			e.Int(len(pend))
			for _, lf := range pend {
				e.I64(lf.arriveAt)
				e.Int(lf.vc)
				if err := encodeFlit(e, lf.f); err != nil {
					return nil, err
				}
			}

			cpend := nd.credOut[p].pending()
			e.Int(len(cpend))
			for _, cm := range cpend {
				e.I64(cm.arriveAt)
				e.Int(int(cm.to.node))
				e.Int(int(cm.to.port))
				e.Int(int(cm.to.vc))
			}
		}

		e.Int(nd.cmap.Mapped())
		nd.cmap.ForEach(func(in, out routing.VCRef) {
			e.Int(in.Port)
			e.Int(in.VC)
			e.Int(out.Port)
			e.Int(out.VC)
		})

		counters, gauges, histBuf, histCount, histSum := nd.ms.ExportState()
		e.Int(len(counters))
		for _, v := range counters {
			e.I64(v)
		}
		e.Int(len(gauges))
		for _, v := range gauges {
			e.F64(v)
		}
		e.Int(len(histBuf))
		for _, v := range histBuf {
			e.I64(v)
		}
		e.Int(len(histCount))
		for _, v := range histCount {
			e.I64(v)
		}
		e.Int(len(histSum))
		for _, v := range histSum {
			e.F64(v)
		}

		evs := nd.rec.Events(nil)
		e.Int(len(evs))
		for _, ev := range evs {
			e.I64(ev.Cycle)
			e.U16(ev.Code)
			e.Int(int(ev.Node))
			e.I64(int64(ev.A))
			e.I64(int64(ev.B))
			e.I64(ev.Aux)
		}
		e.I64(nd.rec.Total())
	}

	e.U64(n.events.Fired())

	seqs := make([]uint64, 0, len(n.durables))
	for s := range n.durables {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	e.Int(len(seqs))
	for _, s := range seqs {
		ev := n.durables[s]
		e.I64(ev.at)
		e.U8(uint8(ev.kind))
		e.I64(ev.a)
		e.I64(ev.b)
	}

	ids := make([]int64, 0, len(n.openRetries))
	for id := range n.openRetries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.Int(len(ids))
	for _, id := range ids {
		or := n.openRetries[id]
		e.I64(id)
		e.Int(or.req.Src)
		e.Int(or.req.Dst)
		encodeSpec(e, or.req.Spec)
		e.Int(or.attempt)
	}
	e.I64(n.nextOpenID)

	// --- trailer: tenant admission state and re-promotion bookkeeping.
	// Tenant *usage* and the degradedLive counter are deliberately not
	// serialized: both are recomputed from the restored connections, so
	// they can never disagree with them.
	for _, c := range n.conns {
		e.String(c.Tenant)
	}
	for _, id := range ids {
		e.String(n.openRetries[id].req.Tenant)
	}
	qnames := make([]string, 0)
	for _, name := range n.tenants.Names() {
		if _, ok := n.tenants.Quota(name); ok {
			qnames = append(qnames, name)
		}
	}
	e.Int(len(qnames))
	for _, name := range qnames {
		q, _ := n.tenants.Quota(name)
		e.String(name)
		e.Int(q.MaxSessions)
		e.Int(q.MaxGuaranteed)
	}
	e.I64(m.connsPromoted)
	e.I64(n.promoteGen)

	n.lastPayload = e.Len()
	return e.Bytes(), nil
}

// RestoreState deserializes a payload produced by EncodeState into n,
// which must be freshly built by New with an equivalent configuration
// (same geometry, seed and policies; worker count and gating are free).
// Do not call ApplyPlan or schedule anything before restoring — the
// checkpoint carries the fault schedule and every pending event. After
// a successful restore the global resource invariants are audited.
// The payload must be of the current format version.
func (n *Network) RestoreState(payload []byte) error {
	if n.now != 0 || len(n.conns) != 0 || len(n.beFlows) != 0 ||
		n.events.Pending() != 0 || len(n.sessionLog) != 0 || len(n.faultSchedule) != 0 {
		return fmt.Errorf("network: restore target must be a freshly built network")
	}
	d := checkpoint.NewDecoder(payload)
	n.now = d.I64()
	masterRNG := decodeRNG(d)

	tp := n.cfg.Topology
	if got := d.Int(); d.Err() == nil && got != len(tp.Links) {
		return fmt.Errorf("network: checkpoint has %d links, topology has %d", got, len(tp.Links))
	}
	for _, l := range tp.Links {
		up := d.Bool()
		if d.Err() == nil && tp.LinkUp(l.A, l.APort) != up {
			tp.SetLinkUp(l.A, l.APort, up)
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	n.dists.Recompute(tp)
	n.ud.Rebuild()

	m := &n.m
	m.cycles = d.I64()
	m.setupAttempts = d.I64()
	m.setupAccepted = d.I64()
	m.setupRejected = d.I64()
	m.setupRetries = d.I64()
	m.closed = d.I64()
	decodeAcc(d, &m.setupLatency)
	decodeAcc(d, &m.setupBacktracks)
	m.faultsInjected = d.I64()
	m.faultsRepaired = d.I64()
	m.faultFlitsLost = d.I64()
	m.connsBroken = d.I64()
	m.connsRestored = d.I64()
	m.connsDegraded = d.I64()
	m.connsLost = d.I64()
	decodeAcc(d, &m.restoreLatency)

	nLog := d.Int()
	if err := checkCount(d, nLog, "session log"); err != nil {
		return err
	}
	for i := 0; i < nLog; i++ {
		var ev SessionEvent
		ev.Cycle = d.I64()
		ev.Kind = d.String()
		ev.Conn = flit.ConnID(d.I64())
		ev.Node = d.Int()
		ev.Port = d.Int()
		ev.Detail = d.String()
		n.sessionLog = append(n.sessionLog, ev)
	}

	nImp := d.Int()
	if err := checkCount(d, nImp, "impairments"); err != nil {
		return err
	}
	for i := 0; i < nImp; i++ {
		var im faults.Impairment
		im.Node = d.Int()
		im.Port = d.Int()
		im.DropProb = d.F64()
		im.CorruptProb = d.F64()
		if d.Err() == nil {
			n.impair[[2]int{im.Node, im.Port}] = im
		}
	}

	nFS := d.Int()
	if err := checkCount(d, nFS, "fault schedule"); err != nil {
		return err
	}
	for i := 0; i < nFS; i++ {
		var ev faults.Event
		ev.Cycle = d.I64()
		ev.Kind = faults.Kind(d.Int())
		ev.Node = d.Int()
		ev.Port = d.Int()
		n.faultSchedule = append(n.faultSchedule, ev)
	}

	nc := d.Int()
	if err := checkCount(d, nc, "connections"); err != nil {
		return err
	}
	for i := 0; i < nc; i++ {
		c := &Conn{ID: flit.ConnID(i), dstSlot: -1}
		c.Src = d.Int()
		c.Dst = d.Int()
		c.Spec = decodeSpec(d)
		if err := d.Err(); err != nil {
			return err
		}
		if c.Src < 0 || c.Src >= len(n.nodes) || c.Dst < 0 || c.Dst >= len(n.nodes) {
			return fmt.Errorf("network: checkpoint connection %d has endpoints (%d,%d) outside the topology", i, c.Src, c.Dst)
		}
		np := d.Int()
		if err := checkCount(d, np, "path hops"); err != nil {
			return err
		}
		for j := 0; j < np; j++ {
			c.Path = append(c.Path, routing.PathHop{Node: d.Int(), Port: d.Int()})
		}
		nv := d.Int()
		if err := checkCount(d, nv, "path VCs"); err != nil {
			return err
		}
		for j := 0; j < nv; j++ {
			c.VCs = append(c.VCs, routing.VCRef{Port: d.Int(), VC: d.Int()})
		}
		nn := d.Int()
		if err := checkCount(d, nn, "path nodes"); err != nil {
			return err
		}
		for j := 0; j < nn; j++ {
			c.Nodes = append(c.Nodes, d.Int())
		}
		c.SetupTime = d.I64()
		c.Backtracks = d.Int()
		c.Restores = d.Int()
		c.Degraded = d.Bool()
		c.open = d.Bool()
		c.closed = d.Bool()
		c.broken = d.Bool()
		c.lost = d.Bool()
		c.brokenAt = d.I64()
		c.lastTick = d.I64()
		c.nextDue = d.I64()
		c.nextSeq = d.I64()
		if d.Bool() {
			// Reconstruct the source against the owning node's RNG, then
			// overwrite its mutable state; no constructor here draws
			// randomness, so the streams stay aligned until the per-node
			// RNG states are restored below.
			if c.Spec.Class == flit.ClassVBR {
				s := traffic.NewVBRSource(n.nodes[c.Src].rng, n.cfg.Link, c.Spec.Rate, c.Spec.PeakRate, traffic.DefaultGoP())
				s.RestoreState(decodeVBRState(d))
				c.src = s
			} else {
				s := traffic.NewCBRSource(n.cfg.Link, c.Spec.Rate, 0)
				s.RestoreState(decodeCBRState(d))
				c.src = s
			}
		}
		nq := d.Int()
		if err := checkCount(d, nq, "interface queue"); err != nil {
			return err
		}
		for j := 0; j < nq; j++ {
			f := decodeFlit(d, n.nodes[c.Src])
			if f != nil {
				c.niQueue.Push(f)
			}
		}
		n.conns = append(n.conns, c)
		// Terminal connections (closed, degraded, lost) are pruned from
		// the per-node injector lists on the live fabric; mirror that here
		// so the restored scan lists — and therefore per-cycle cost —
		// match the fabric that wrote the checkpoint.
		if !c.terminal() {
			n.nodes[c.Src].srcConns = append(n.nodes[c.Src].srcConns, c)
		}
		// Trackers grow only at the ejecting node. Replaying connections
		// in ID order reproduces the per-destination slot assignment the
		// live admission path made when each connection was accepted.
		n.assignTrackerSlot(c)
	}

	n.nextFlowID = FlowID(d.I64())
	nbf := d.Int()
	if err := checkCount(d, nbf, "best-effort flows"); err != nil {
		return err
	}
	for i := 0; i < nbf; i++ {
		bf := &beFlow{}
		bf.id = FlowID(d.I64())
		bf.src = d.Int()
		bf.dst = d.Int()
		bf.conn = flit.ConnID(d.I64())
		tag := d.U8()
		if err := d.Err(); err != nil {
			return err
		}
		if bf.src < 0 || bf.src >= len(n.nodes) || bf.dst < 0 || bf.dst >= len(n.nodes) {
			return fmt.Errorf("network: checkpoint flow %d has endpoints (%d,%d) outside the topology", i, bf.src, bf.dst)
		}
		if bf.conn != flit.InvalidConn && (bf.conn < 0 || int(bf.conn) >= len(n.conns)) {
			return fmt.Errorf("network: checkpoint flow %d claims unknown owner connection %d", i, bf.conn)
		}
		switch tag {
		case 0:
			// The constructor draws one inter-arrival from the node RNG;
			// the draw is undone when node RNG states are restored below,
			// and the state overwrite reinstates the true next arrival.
			s := traffic.NewBestEffortSource(n.nodes[bf.src].rng, 1)
			s.RestoreState(traffic.BestEffortState{Rate: d.F64(), Next: d.F64()})
			bf.gen = s
		case 1:
			s := traffic.NewCBRSource(n.cfg.Link, 0, 0)
			s.RestoreState(traffic.CBRState{PerCycle: d.F64(), Acc: d.F64()})
			bf.gen = s
		default:
			return fmt.Errorf("network: checkpoint flow %d has unknown generator tag %d", i, tag)
		}
		bf.lastTick = d.I64()
		bf.nextDue = d.I64()
		nq := d.Int()
		if err := checkCount(d, nq, "flow interface queue"); err != nil {
			return err
		}
		for j := 0; j < nq; j++ {
			f := decodeFlit(d, n.nodes[bf.src])
			if f != nil {
				bf.niQueue.Push(f)
			}
		}
		n.beFlows = append(n.beFlows, bf)
		n.nodes[bf.src].beSrc = append(n.nodes[bf.src].beSrc, bf)
	}

	radix := n.cfg.radix()
	for _, nd := range n.nodes {
		nd.rng.Restore(decodeRNG(d))
		nd.pktSeq = d.I64()
		nd.lastRound = d.I64()

		ds := &nd.stats
		ds.generated = d.I64()
		ds.delivered = d.I64()
		ds.linkFlits = d.I64()
		ds.beGenerated = d.I64()
		ds.beDelivered = d.I64()
		decodeAcc(d, &ds.beLatency)
		ds.flitsDropped = d.I64()
		ds.flitsCorrupted = d.I64()

		tr := ds.tracker
		tn := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if tn != tr.NumConns() {
			return fmt.Errorf("network: checkpoint tracker on node %d covers %d connections, want %d", nd.id, tn, tr.NumConns())
		}
		decodeAcc(d, tr.Delay())
		decodeAcc(d, tr.Jitter())
		for i := 0; i < tn; i++ {
			decodeAcc(d, tr.ConnDelay(i))
			decodeAcc(d, tr.ConnJitter(i))
			prev := d.F64()
			seen := d.Bool()
			tr.RestoreBaseline(i, prev, seen)
		}

		for p := 0; p < radix; p++ {
			mem := nd.mems[p]

			inUse := d.Int()
			if err := checkCount(d, inUse, "reserved VCs"); err != nil {
				return err
			}
			for i := 0; i < inUse; i++ {
				vc := d.Int()
				if err := checkVC(d, n, vc); err != nil {
					return err
				}
				st := vcm.VCState{}
				st.Conn = flit.ConnID(d.I64())
				st.Class = flit.Class(d.U8())
				st.Allocated = d.Int()
				st.Peak = d.Int()
				serviced := d.Int()
				st.BasePriority = d.Int()
				st.Bias = d.F64()
				st.InterArrival = d.F64()
				st.Output = d.Int()
				st.InUse = true
				mem.RestoreState(vc, st)
				mem.SetServiced(vc, serviced)
			}

			buffered := d.Int()
			if err := checkCount(d, buffered, "buffered VCs"); err != nil {
				return err
			}
			for i := 0; i < buffered; i++ {
				vc := d.Int()
				ln := d.Int()
				if err := checkVC(d, n, vc); err != nil {
					return err
				}
				if ln < 0 || ln > n.cfg.Depth {
					return fmt.Errorf("network: checkpoint buffers %d flits in a VC of depth %d", ln, n.cfg.Depth)
				}
				for j := 0; j < ln; j++ {
					f := decodeFlit(d, nd)
					if f != nil && !mem.Push(vc, f) {
						return fmt.Errorf("network: checkpoint overflows VC %d on node %d port %d", vc, nd.id, p)
					}
				}
			}

			spent := d.Int()
			if err := checkCount(d, spent, "shadow credits"); err != nil {
				return err
			}
			for i := 0; i < spent; i++ {
				vc := d.Int()
				avail := d.Int()
				if err := checkVC(d, n, vc); err != nil {
					return err
				}
				if avail < 0 || avail > n.cfg.Depth {
					return fmt.Errorf("network: checkpoint credit count %d outside [0,%d]", avail, n.cfg.Depth)
				}
				nd.shadow[p].SetAvailable(vc, avail)
			}

			ups := d.Int()
			if err := checkCount(d, ups, "upstream refs"); err != nil {
				return err
			}
			for i := 0; i < ups; i++ {
				vc := d.Int()
				if err := checkVC(d, n, vc); err != nil {
					return err
				}
				nd.upstream[p][vc] = upRef{node: int32(d.Int()), port: int16(d.Int()), vc: int16(d.Int())}
			}

			g := d.Int()
			pk := d.Int()
			cns := d.Int()
			if err := d.Err(); err != nil {
				return err
			}
			nd.alloc[p].RestoreState(g, pk, cns)

			excess := d.Int()
			lc := sched.LinkCounters{
				Nominated:      d.I64(),
				CreditStalled:  d.I64(),
				RoundExhausted: d.I64(),
				BiasBoosted:    d.I64(),
			}
			nd.links[p].RestoreState(excess, lc)

			nPend := d.Int()
			if err := checkCount(d, nPend, "pipe entries"); err != nil {
				return err
			}
			for i := 0; i < nPend; i++ {
				at := d.I64()
				vc := d.Int()
				f := decodeFlit(d, nd)
				if f != nil {
					nd.pipes[p].push(linkFlit{arriveAt: at, vc: vc, f: f})
				}
			}

			nCred := d.Int()
			if err := checkCount(d, nCred, "credit entries"); err != nil {
				return err
			}
			for i := 0; i < nCred; i++ {
				at := d.I64()
				to := upRef{node: int32(d.Int()), port: int16(d.Int()), vc: int16(d.Int())}
				if d.Err() == nil {
					nd.credOut[p].push(creditMsg{arriveAt: at, to: to})
				}
			}
		}

		nMap := d.Int()
		if err := checkCount(d, nMap, "channel mappings"); err != nil {
			return err
		}
		for i := 0; i < nMap; i++ {
			in := routing.VCRef{Port: d.Int(), VC: d.Int()}
			out := routing.VCRef{Port: d.Int(), VC: d.Int()}
			if err := d.Err(); err != nil {
				return err
			}
			if err := nd.cmap.Map(in, out); err != nil {
				return fmt.Errorf("network: checkpoint channel map on node %d: %w", nd.id, err)
			}
		}

		counters := decodeI64s(d)
		gauges := decodeF64s(d)
		histBuf := decodeI64s(d)
		histCount := decodeI64s(d)
		histSum := decodeF64s(d)
		if err := d.Err(); err != nil {
			return err
		}
		if err := nd.ms.RestoreState(counters, gauges, histBuf, histCount, histSum); err != nil {
			return err
		}

		nEv := d.Int()
		if err := checkCount(d, nEv, "flight events"); err != nil {
			return err
		}
		nd.rec.Reset()
		for i := 0; i < nEv; i++ {
			var ev metrics.Event
			ev.Cycle = d.I64()
			ev.Code = d.U16()
			ev.Node = int16(d.Int())
			ev.A = int32(d.I64())
			ev.B = int32(d.I64())
			ev.Aux = d.I64()
			if d.Err() == nil {
				nd.rec.Record(ev)
			}
		}
		nd.rec.SetTotal(d.I64())
	}

	fired := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	engineNow := n.now - 1
	if engineNow < 0 {
		engineNow = 0
	}
	n.events.SetClock(sim.Time(engineNow), fired)

	nDur := d.Int()
	if err := checkCount(d, nDur, "durable events"); err != nil {
		return err
	}
	for i := 0; i < nDur; i++ {
		at := d.I64()
		kind := durableKind(d.U8())
		a := d.I64()
		b := d.I64()
		if err := d.Err(); err != nil {
			return err
		}
		n.scheduleDurable(at, kind, a, b)
	}

	nOR := d.Int()
	if err := checkCount(d, nOR, "open retries"); err != nil {
		return err
	}
	orIDs := make([]int64, 0, nOR)
	for i := 0; i < nOR; i++ {
		id := d.I64()
		or := &openRetry{}
		or.req.Src = d.Int()
		or.req.Dst = d.Int()
		or.req.Spec = decodeSpec(d)
		or.attempt = d.Int()
		if d.Err() == nil {
			n.openRetries[id] = or
			orIDs = append(orIDs, id)
		}
	}
	n.nextOpenID = d.I64()

	// Trailer: tenant owners (conn order, then open-retry order as
	// written — ascending ID), quota table, promotion bookkeeping.
	for _, c := range n.conns {
		c.Tenant = d.String()
	}
	for _, id := range orIDs {
		n.openRetries[id].req.Tenant = d.String()
	}
	nq := d.Int()
	if err := checkCount(d, nq, "tenant quotas"); err != nil {
		return err
	}
	for i := 0; i < nq; i++ {
		name := d.String()
		q := admission.TenantQuota{MaxSessions: d.Int(), MaxGuaranteed: d.Int()}
		if d.Err() == nil {
			n.tenants.SetQuota(name, q)
		}
	}
	m.connsPromoted = d.I64()
	n.promoteGen = d.I64()

	if err := d.Err(); err != nil {
		return err
	}
	if r := d.Remaining(); r != 0 {
		return fmt.Errorf("network: checkpoint has %d trailing bytes", r)
	}
	n.rng.Restore(masterRNG)

	// Telemetry tenant slots are observability state, not checkpoint
	// payload: re-derive them in conn (= ID) order once tenant owners are
	// known (the trailer above fills c.Tenant). This must run after the
	// trailer — assignTrackerSlot already derived slots during the conn
	// loop, but at that point every owner still read as default.
	for _, c := range n.conns {
		c.tenantSlot = n.tenantSlotFor(c.Tenant)
	}

	// Derived admission state: recomputed from the restored connections
	// so counters and charges can never drift from the sessions they
	// describe. Guaranteed bandwidth is charged while a session holds (or
	// is awaiting restoration of) a guaranteed path; a degraded session
	// holds only its session slot.
	n.degradedLive = 0
	n.tenants.ResetUsage()
	for _, c := range n.conns {
		if c.Degraded && !c.closed {
			n.degradedLive++
		}
		if c.closed || c.lost {
			continue
		}
		g := 0
		if c.open || c.broken {
			g = n.demandFor(c.Spec).alloc
		}
		n.tenants.RestoreSession(c.Tenant, g)
	}

	if err := n.CheckInvariants(); err != nil {
		return fmt.Errorf("network: restored state fails the resource audit: %w", err)
	}
	return nil
}

// quiesce applies every lazy catch-up the gated datapath has deferred —
// round-boundary resets for idle routers, source ticks across elided
// cycles — so the encoded state is canonical: a gated and an ungated
// run of the same fabric checkpoint to identical bytes. Each catch-up
// is exactly what the node would perform on its next active cycle, so
// quiescing is unobservable to the continuing simulation. The forecast
// contract guarantees elided cycles carry no emissions and no RNG
// draws; a tick that produces flits here indicates a forecast bug and
// aborts the checkpoint.
func (n *Network) quiesce() error {
	if n.now == 0 {
		return nil
	}
	t := n.now - 1
	round := t / int64(n.cfg.K*n.cfg.VCs)
	for _, nd := range n.nodes {
		if nd.lastRound != round {
			nd.lastRound = round
			for _, ls := range nd.links {
				ls.OnRoundBoundary()
			}
		}
	}
	for _, c := range n.conns {
		if !c.injecting() {
			continue
		}
		if k := traffic.AdvanceSource(c.src, c.lastTick, t); k != 0 {
			return fmt.Errorf("network: connection %d was due %d flits during elided cycles %d-%d", c.ID, k, c.lastTick+1, t)
		}
		c.lastTick = t
	}
	for i, bf := range n.beFlows {
		if k := traffic.AdvanceSource(bf.gen, bf.lastTick, t); k != 0 {
			return fmt.Errorf("network: best-effort flow %d was due %d packets during elided cycles %d-%d", i, k, bf.lastTick+1, t)
		}
		bf.lastTick = t
	}
	return nil
}

// SaveCheckpoint atomically writes the fabric state to path, sealed in
// the versioned, checksummed checkpoint envelope under this network's
// configuration hash.
func (n *Network) SaveCheckpoint(path string) error {
	payload, err := n.EncodeState()
	if err != nil {
		return err
	}
	return checkpoint.WriteFile(path, n.ConfigHash(), payload)
}

// RestoreCheckpoint builds a fresh network for cfg and restores the
// checkpoint at path into it. cfg must describe the same fabric the
// checkpoint was taken from (enforced via the envelope's config hash);
// Workers and NoIdleSkip are free to differ — restores are bit-exact
// across both.
func RestoreCheckpoint(cfg Config, path string) (*Network, error) {
	n, err := New(cfg)
	if err != nil {
		return nil, err
	}
	payload, ver, err := checkpoint.ReadFile(path, n.ConfigHash())
	if err != nil {
		return nil, err
	}
	if err := n.RestoreStateVersion(payload, ver); err != nil {
		return nil, err
	}
	return n, nil
}

// RestoreStateVersion is RestoreState for a payload whose envelope
// reported format version ver: only the current version decodes.
func (n *Network) RestoreStateVersion(payload []byte, ver uint32) error {
	if ver != checkpoint.Version {
		return fmt.Errorf("network: cannot restore format version %d (this build decodes only version %d)", ver, checkpoint.Version)
	}
	return n.RestoreState(payload)
}

// ConfigHash returns the FNV-1a hash of everything about the
// configuration that determines simulation behaviour: topology wiring,
// link geometry, buffering, scheduling scheme and policies, and the
// seed. Workers, Shards, and NoIdleSkip are deliberately excluded —
// they select an execution strategy, not a simulation, and checkpoints
// restore bit-exactly across them.
func (n *Network) ConfigHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mixStr := func(s string) {
		mix(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	cfg := &n.cfg
	tp := cfg.Topology
	mix(uint64(tp.Nodes))
	mix(uint64(tp.Ports))
	mix(uint64(len(tp.Links)))
	for _, l := range tp.Links {
		mix(uint64(l.A))
		mix(uint64(l.APort))
		mix(uint64(l.B))
		mix(uint64(l.BPort))
	}
	mix(math.Float64bits(float64(cfg.Link.Bandwidth)))
	mix(uint64(cfg.Link.FlitBits))
	mix(uint64(cfg.Link.PhitBits))
	mix(uint64(cfg.VCs))
	mix(uint64(cfg.Depth))
	mix(uint64(cfg.K))
	mix(uint64(cfg.MaxCandidates))
	mixStr(fmt.Sprintf("%T", cfg.Scheme))
	mix(uint64(cfg.ArbiterIters))
	mix(uint64(cfg.LinkDelay))
	mix(uint64(cfg.HopLatency))
	mix(math.Float64bits(cfg.Concurrency))
	mixBool := func(b bool) {
		if b {
			mix(1)
		} else {
			mix(0)
		}
	}
	mixBool(cfg.EnforceAllocations)
	mix(cfg.Seed)
	mixBool(cfg.Fault.Restore)
	mix(uint64(cfg.Fault.MaxRetries))
	mix(uint64(cfg.Fault.RetryBackoff))
	mixBool(cfg.Fault.Degrade)
	mixBool(cfg.Fault.Paranoid)
	// Route changes establishment decisions, so it is part of the
	// simulated configuration. Mixed only when non-minimal: every
	// checkpoint written before the mode existed hashes as RouteMinimal.
	if cfg.Route != routing.RouteMinimal {
		mixStr("route")
		mix(uint64(cfg.Route))
	}
	// Promote changes which establishments run, so it is simulated
	// configuration too. Mixed only when disabled: it defaults on, and
	// every checkpoint written before the knob existed hashes as enabled.
	if !cfg.Fault.Promote {
		mixStr("nopromote")
	}
	return h
}

// QuiesceProbes steps the fabric until no establishment probe is in
// flight and every pending event sits in the durable journal, bounded by
// limit cycles — the preamble a live checkpoint needs when sessions are
// still being set up. Probes resolve in bounded time (each advances or
// backtracks every HopLatency cycles and the search space is finite), so
// a limit of a few HopLatency × fabric-diameter × probes cycles is ample.
func (n *Network) QuiesceProbes(limit int64) error {
	deadline := n.now + limit
	for n.activeProbes > 0 || n.events.Pending() != len(n.durables) {
		if n.now >= deadline {
			return fmt.Errorf("network: %d probes and %d non-durable events still in flight after %d quiesce cycles",
				n.activeProbes, n.events.Pending()-len(n.durables), limit)
		}
		n.Step()
	}
	return nil
}

// --- encoding helpers ---

func encodeRNG(e *checkpoint.Encoder, st sim.RNGState) {
	e.U64(st.S0)
	e.U64(st.S1)
	e.F64(st.Gauss)
	e.Bool(st.HaveGauss)
}

func decodeRNG(d *checkpoint.Decoder) sim.RNGState {
	return sim.RNGState{S0: d.U64(), S1: d.U64(), Gauss: d.F64(), HaveGauss: d.Bool()}
}

func encodeAcc(e *checkpoint.Encoder, a *stats.Accumulator) {
	st := a.State()
	e.I64(st.N)
	e.F64(st.Mean)
	e.F64(st.M2)
	e.F64(st.Min)
	e.F64(st.Max)
}

func decodeAcc(d *checkpoint.Decoder, a *stats.Accumulator) {
	a.Restore(stats.AccumulatorState{N: d.I64(), Mean: d.F64(), M2: d.F64(), Min: d.F64(), Max: d.F64()})
}

func encodeSpec(e *checkpoint.Encoder, s traffic.ConnSpec) {
	e.U8(uint8(s.Class))
	e.F64(float64(s.Rate))
	e.F64(float64(s.PeakRate))
	e.Int(s.In)
	e.Int(s.Out)
	e.Int(s.Priority)
}

func decodeSpec(d *checkpoint.Decoder) traffic.ConnSpec {
	return traffic.ConnSpec{
		Class:    flit.Class(d.U8()),
		Rate:     traffic.Rate(d.F64()),
		PeakRate: traffic.Rate(d.F64()),
		In:       d.Int(),
		Out:      d.Int(),
		Priority: d.Int(),
	}
}

// encodeConnSource serializes a connection's traffic source state; the
// concrete type is implied by the connection class.
func encodeConnSource(e *checkpoint.Encoder, c *Conn) error {
	switch s := c.src.(type) {
	case *traffic.VBRSource:
		st := s.ExportState()
		e.Int(st.FrameIdx)
		e.F64(st.NextFrame)
		e.F64(st.Backlog)
		e.F64(st.Acc)
		e.F64(st.PerCycle)
	case *traffic.CBRSource:
		st := s.ExportState()
		e.F64(st.PerCycle)
		e.F64(st.Acc)
	default:
		return fmt.Errorf("network: connection %d has unserializable source %T", c.ID, c.src)
	}
	return nil
}

func decodeVBRState(d *checkpoint.Decoder) traffic.VBRState {
	return traffic.VBRState{
		FrameIdx:  d.Int(),
		NextFrame: d.F64(),
		Backlog:   d.F64(),
		Acc:       d.F64(),
		PerCycle:  d.F64(),
	}
}

func decodeCBRState(d *checkpoint.Decoder) traffic.CBRState {
	return traffic.CBRState{PerCycle: d.F64(), Acc: d.F64()}
}

// encodeFlit serializes one flit. Probe-carrying packets never appear
// in the network datapath (establishment is synchronous); hitting one
// is a checkpoint bug, not a user error.
func encodeFlit(e *checkpoint.Encoder, f *flit.Flit) error {
	e.I64(int64(f.Conn))
	e.U8(uint8(f.Class))
	e.U8(uint8(f.Type))
	e.I64(f.Seq)
	e.I64(f.CreatedAt)
	e.I64(f.ReadyAt)
	e.I64(f.HeadAt)
	e.Int(int(f.SrcPort))
	e.Int(int(f.DstPort))
	e.I64(int64(f.Src))
	e.I64(int64(f.Dst))
	e.Bool(f.Packet != nil)
	if f.Packet != nil {
		pk := f.Packet
		if pk.Probe != nil {
			return fmt.Errorf("network: cannot checkpoint a probe-carrying packet (packet %d)", pk.ID)
		}
		e.I64(pk.ID)
		e.U8(uint8(pk.Kind))
		e.I64(int64(pk.Src))
		e.I64(int64(pk.Dst))
		e.Int(pk.Size)
		e.I64(pk.CreatedAt)
		e.Bool(pk.WentDown)
	}
	return nil
}

// decodeFlit materializes one flit from nd's pool (the node that will
// own it after restore). Returns nil once the decoder has errored.
func decodeFlit(d *checkpoint.Decoder, nd *node) *flit.Flit {
	f := nd.pool.Get()
	f.Conn = flit.ConnID(d.I64())
	f.Class = flit.Class(d.U8())
	f.Type = flit.Type(d.U8())
	f.Seq = d.I64()
	f.CreatedAt = d.I64()
	f.ReadyAt = d.I64()
	f.HeadAt = d.I64()
	f.SrcPort = int16(d.Int())
	f.DstPort = int16(d.Int())
	f.Src = int32(d.I64())
	f.Dst = int32(d.I64())
	if d.Bool() {
		pk := nd.pool.GetPacket()
		pk.ID = d.I64()
		pk.Kind = flit.PacketKind(d.U8())
		pk.Src = int32(d.I64())
		pk.Dst = int32(d.I64())
		pk.Size = d.Int()
		pk.CreatedAt = d.I64()
		pk.WentDown = d.Bool()
		f.Packet = pk
	}
	if d.Err() != nil {
		nd.pool.Put(f)
		return nil
	}
	return f
}

func decodeI64s(d *checkpoint.Decoder) []int64 {
	n := d.Int()
	if d.Err() != nil || n < 0 || n > d.Remaining()/8 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.I64()
	}
	return out
}

func decodeF64s(d *checkpoint.Decoder) []float64 {
	n := d.Int()
	if d.Err() != nil || n < 0 || n > d.Remaining()/8 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// checkCount validates a decoded element count: the decoder must still
// be healthy and the count must be non-negative and small enough that
// the remaining payload could plausibly hold it (every element is at
// least one byte), so a corrupted count cannot drive a giant loop.
func checkCount(d *checkpoint.Decoder, n int, what string) error {
	if err := d.Err(); err != nil {
		return err
	}
	if n < 0 || n > d.Remaining() {
		return fmt.Errorf("network: checkpoint %s count %d is implausible (%d bytes remain)", what, n, d.Remaining())
	}
	return nil
}

// checkVC validates a decoded VC index.
func checkVC(d *checkpoint.Decoder, n *Network, vc int) error {
	if err := d.Err(); err != nil {
		return err
	}
	if vc < 0 || vc >= n.cfg.VCs {
		return fmt.Errorf("network: checkpoint names VC %d outside [0,%d)", vc, n.cfg.VCs)
	}
	return nil
}
