package network

import (
	"cmp"
	"math"
	"slices"

	"mmr/internal/checkpoint"
	"mmr/internal/faults"
	"mmr/internal/flit"
	"mmr/internal/flow"
	"mmr/internal/metrics"
	"mmr/internal/routing"
	"mmr/internal/sim"
	"mmr/internal/stats"
	"mmr/internal/topology"
	"mmr/internal/traffic"
	"mmr/internal/vcm"
)

// state.go is the checkpoint payload, format version 4, written once:
// Network.state walks every serialized field in payload order through a
// codec that either appends the field (EncodeState) or reads it back
// (RestoreState). Nothing else knows the order or width of a field.
//
// What is deliberately NOT serialized, because it is recomputed or
// provably empty at a cycle boundary: routing tables (recomputed from link
// state), VCM status bit vectors (rebuilt by RestoreState/Push), per-cycle
// scheduling scratch (cands/grants/grantVC), staged drop credits and claim
// slots (always empty/-1 between cycles — enforced), flit pools (pooling
// is unobservable), the wake table and source calendars (a fresh fabric
// derives them in its first cycle), tenant usage and the degraded-session
// count (recomputed from the restored connections, so they can never
// disagree with them), and the idle-skip diagnostic counter.
//
// Decoding trusts nothing: every value a later line — here, in
// CheckInvariants or in the datapath — indexes by goes through a
// range-checked leaf (nodeIdx, portIdx, vcIdx, connIdx, Range) and every
// count through Count, so a damaged payload is an error, never a panic.
// Only when decoding does the walk build the objects the fields live in
// and hand each to the structure that owns it. State behind an
// export/restore pair (an RNG, an accumulator, a source, a register file)
// is exported, run through the leaves and restored in both directions:
// when encoding, what it restores is what it exported.

// codec is the walk's cursor: the payload codec plus the fabric whose
// geometry bounds every index.
type codec struct {
	*checkpoint.Codec
	n       *Network
	scratch []int              // sparse's match list
	maps    [][2]routing.VCRef // nodeState's channel-mapping list
}

type integer interface {
	~int | ~int64 | ~int32 | ~int16
}

// idx walks an integer field of any width, as the payload's int64, that
// must lie in [lo, hi); num one that may hold anything.
func idx[T integer](c *codec, p *T, lo, hi int, what string) {
	v := int(*p)
	c.Range(&v, lo, hi, what)
	*p = T(v)
}

func num[T integer](c *codec, p *T) { idx(c, p, math.MinInt, math.MaxInt, "integer") }

// The index leaves: a router, a router port (host port included), a
// virtual channel, a connection ID or flit.InvalidConn.
func nodeIdx[T integer](c *codec, p *T) { idx(c, p, 0, len(c.n.nodes), "node") }
func portIdx[T integer](c *codec, p *T) { idx(c, p, 0, c.n.cfg.radix(), "port") }
func vcIdx[T integer](c *codec, p *T)   { idx(c, p, 0, c.n.cfg.VCs, "VC") }
func connIdx(c *codec, p *flit.ConnID) {
	idx(c, p, int(flit.InvalidConn), len(c.n.conns), "connection")
}

// class walks a service class, which indexes per-class tables.
func class(c *codec, p *flit.Class) {
	c.U8((*uint8)(p))
	if int(*p) >= flit.NumClasses {
		c.Failf("network: checkpoint names service class %d", *p)
	}
}

// each walks a slice: its elements in order when encoding; when decoding,
// as many as the payload counts — at most the bytes left over width, the
// fewest an element encodes to — each appended and filled in place by
// visit. Given an arena, the decoded slice is first carved from it at that
// count (refit), as a new session's route is. A loop over a decoded count
// stops at the first error.
func each[T any](c *codec, xs *[]T, arena *[]T, width int, what string, visit func(i int, x *T)) {
	k := c.CountOf(len(*xs), width, what)
	if c.Decoding() && arena != nil {
		*xs = refit(*xs, arena, k)
	}
	for i := 0; i < k && c.Err() == nil; i++ {
		if c.Decoding() {
			*xs = append(*xs, *new(T))
		}
		visit(i, &(*xs)[i])
	}
}

// sparse walks a per-VC table that lists only the VCs differing from a
// fresh fabric's — those has picks when encoding, those the payload names
// when decoding — each as its VC index, then visit's fields.
func (c *codec) sparse(what string, has func(vc int) bool, visit func(vc int)) {
	vcs := c.scratch[:0]
	for v := 0; !c.Decoding() && v < c.n.cfg.VCs; v++ {
		if has(v) {
			vcs = append(vcs, v)
		}
	}
	each(c, &vcs, nil, 8, what, func(_ int, v *int) {
		vcIdx(c, v)
		visit(*v)
	})
	c.scratch = vcs[:0]
}

// seq walks a sequence kept in something other than a slice the walk
// can fill in place: when encoding, get yields each of its k elements;
// when decoding, each is built up from zero by fields and handed to put.
func seq[T any](c *codec, k int, what string, get func(i int) T, fields func(*T), put func(T)) {
	if k = c.Count(k, what); k == 0 {
		return
	}
	var x, zero T // fields may keep &x, so it lives on the heap: once a call with elements, not once an element
	for i := 0; i < k && c.Err() == nil; i++ {
		x = zero
		if !c.Decoding() {
			x = get(i)
		}
		fields(&x)
		if c.Decoding() && c.Err() == nil {
			put(x)
		}
	}
}

// lane walks a staging lane's undelivered entries, oldest first: each
// one's arrival cycle, then what fields walks of its value.
func lane[T any](c *codec, l *flow.Lane[T], what string, fields func(*T)) {
	pending := l.Pending()
	seq(c, len(pending), what, func(i int) flow.Timed[T] { return pending[i] }, func(e *flow.Timed[T]) {
		c.I64(&e.At)
		fields(&e.V)
	}, func(e flow.Timed[T]) { l.Push(e.At, e.V) })
}

// fixed walks a count that is the build's to decide — the topology's,
// the metric registry's — so the payload's must match it.
func (c *codec) fixed(n int, what string) {
	if k := c.Count(n, what); c.Err() == nil && k != n {
		c.Failf("network: checkpoint has %d %s, this fabric %d", k, what, n)
	}
}

// table walks a fixed-shape table in place.
func table[T any](c *codec, xs []T, what string, leaf func(*T)) {
	c.fixed(len(xs), what)
	for i := range xs {
		leaf(&xs[i])
	}
}

// sortedKeys returns m's keys in order, so a map serializes the same
// way every time.
func sortedKeys[K comparable, V any](m map[K]V, order func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, order)
	return keys
}

func (c *codec) rng(r *sim.RNG) {
	st := r.State()
	c.U64(&st.S0)
	c.U64(&st.S1)
	c.F64(&st.Gauss)
	c.Bool(&st.HaveGauss)
	r.Restore(st)
}

func (c *codec) acc(a *stats.Accumulator) {
	st := a.State()
	c.I64(&st.N)
	c.F64(&st.Mean)
	c.F64(&st.M2)
	c.F64(&st.Min)
	c.F64(&st.Max)
	a.Restore(st)
}

func (c *codec) spec(s *traffic.ConnSpec) {
	class(c, &s.Class)
	c.F64((*float64)(&s.Rate))
	c.F64((*float64)(&s.PeakRate))
	c.Int(&s.In)
	c.Int(&s.Out)
	c.Int(&s.Priority)
}

func (c *codec) vcRef(r *routing.VCRef) {
	portIdx(c, &r.Port)
	vcIdx(c, &r.VC)
}

func (c *codec) upRef(r *upRef) {
	nodeIdx(c, &r.node)
	portIdx(c, &r.port)
	vcIdx(c, &r.vc)
}

// source walks a traffic generator's evolving state (its constructor
// rebuilt the geometry) and returns its next arrival, +Inf if it keeps none.
func (c *codec) source(src traffic.Source, what string, id int) (next float64) {
	next = math.Inf(1)
	switch s := src.(type) {
	case *traffic.CBRSource:
		st := s.ExportState()
		c.F64(&st.PerCycle)
		c.F64(&st.Acc)
		s.RestoreState(st)
	case *traffic.VBRSource:
		st := s.ExportState()
		c.Range(&st.FrameIdx, 0, math.MaxInt, "frame index") // indexes the GoP pattern
		c.F64(&st.NextFrame)
		c.F64(&st.Backlog)
		c.F64(&st.Acc)
		c.F64(&st.PerCycle)
		s.RestoreState(st)
		next = st.NextFrame
	case *traffic.BestEffortSource:
		st := s.ExportState()
		c.F64(&st.Rate)
		c.F64(&st.Next)
		s.RestoreState(st)
		next = st.Next
	default:
		c.Failf("network: %s %d has unserializable generator %T", what, id, src)
	}
	return next
}

// inStep holds a decoded live source to the form quiesce wrote it in —
// ticked through the last cycle — and its next arrival to cycle 0 or later
// (an unticked source keeps its constructor's): its first tick replays the gap.
func (c *codec) inStep(lastTick int64, next float64, what string, id int) {
	if c.Decoding() && (lastTick != c.n.now-1 || !(next >= 0)) {
		c.Failf("network: checkpoint %s %d has a source out of step with the clock", what, id)
	}
}

// state is format version 4: every serialized field of the fabric, in
// payload order.
func (n *Network) state(c *codec) error {
	idx(c, &n.now, 0, math.MaxInt, "clock")
	c.rng(n.rng)
	n.linkState(c)
	n.netStatsState(c)
	n.sessionLogState(c)
	n.impairState(c)
	n.faultScheduleState(c)
	n.connState(c)
	n.flowState(c)
	for _, nd := range n.nodes {
		n.nodeState(c, nd)
	}
	n.tenantState(c, n.journalState(c))
	return c.Err()
}

// linkState: which wired links are up. The link list itself is geometry
// (the config hash covers it); only its length is checked.
func (n *Network) linkState(c *codec) {
	tp := n.cfg.Topology
	table(c, tp.Links, "links", func(l *topology.Link) {
		up := tp.LinkUp(l.A, l.APort)
		c.Bool(&up)
		if c.Decoding() && c.Err() == nil && up != tp.LinkUp(l.A, l.APort) {
			tp.SetLinkUp(l.A, l.APort, up)
		}
	})
}

// netStatsState: the session record — the clock, then the session
// counters in table order, the five setup counters followed by the setup
// accumulators. connsPromoted joined them in format 4 and rides the
// trailer.
func (n *Network) netStatsState(c *codec) {
	m, sc := &n.m, n.m.sessionCounters()
	c.I64(&m.Cycles)
	for _, s := range sc[:5] {
		c.I64(s.v)
	}
	c.acc(&m.SetupLatency)
	c.acc(&m.SetupBacktracks)
	for _, s := range sc[5:] {
		if s.v != &m.ConnsPromoted {
			c.I64(s.v)
		}
	}
	c.acc(&m.RestoreLatency)
}

func (n *Network) sessionLogState(c *codec) {
	each(c, &n.sessionLog, nil, 40, "session log", func(_ int, ev *SessionEvent) {
		c.I64(&ev.Cycle)
		c.String(&ev.Kind)
		num(c, &ev.Conn)
		c.Int(&ev.Node)
		c.Int(&ev.Port)
		c.String(&ev.Detail)
	})
}

// impairState: per-directed-link impairments in (node, port) order. The
// key is only ever looked up, never indexed by.
func (n *Network) impairState(c *codec) {
	keys := sortedKeys(n.impair, func(a, b [2]int) int { return slices.Compare(a[:], b[:]) })
	seq(c, len(keys), "impairments", func(i int) faults.Impairment { return n.impair[keys[i]] }, func(im *faults.Impairment) {
		c.Int(&im.Node)
		c.Int(&im.Port)
		c.F64(&im.DropProb)
		c.F64(&im.CorruptProb)
	}, func(im faults.Impairment) { n.impair[[2]int{im.Node, im.Port}] = im })
}

// faultScheduleState: the expanded fault plan durFault events index. A
// link that does not exist is refused where the transition is applied.
func (n *Network) faultScheduleState(c *codec) {
	each(c, &n.faultSchedule, nil, 32, "fault schedule", func(_ int, ev *faults.Event) {
		c.I64(&ev.Cycle)
		c.Int((*int)(&ev.Kind))
		c.Int(&ev.Node)
		c.Int(&ev.Port)
	})
}

// connState: every connection ever opened, in ID order, carved from the arenas.
func (n *Network) connState(c *codec) {
	each(c, &n.conns, nil, 64, "connections", func(i int, pc **Conn) {
		if c.Decoding() {
			*pc = n.arena.conn()
			**pc = Conn{ID: flit.ConnID(i), dstSlot: -1}
		}
		cn := *pc
		nodeIdx(c, &cn.Src)
		nodeIdx(c, &cn.Dst)
		c.spec(&cn.Spec)
		home := n.nodes[cn.Src]
		each(c, &cn.Path, &n.arena.hops, 16, "path hops", func(_ int, h *routing.PathHop) {
			nodeIdx(c, &h.Node)
			portIdx(c, &h.Port)
		})
		each(c, &cn.VCs, &n.arena.vcs, 16, "path VCs", func(_ int, r *routing.VCRef) { c.vcRef(r) })
		each(c, &cn.Nodes, &n.arena.nodes, 8, "path nodes", func(_ int, id *int) { nodeIdx(c, id) })
		c.I64(&cn.SetupTime)
		c.Int(&cn.Backtracks)
		c.Int(&cn.Restores)
		c.Bool(&cn.Degraded)
		c.Bool(&cn.open)
		c.Bool(&cn.closed)
		c.Bool(&cn.broken)
		c.Bool(&cn.lost)
		c.I64(&cn.brokenAt)
		c.I64(&cn.ni.LastTick)
		c.I64(&cn.ni.NextDue)
		c.I64(&cn.nextSeq)
		has := cn.ni.Source != nil
		c.Bool(&has)
		if has {
			// A decoded source is built against the owning node's RNG as
			// the class implies, then overwritten. No constructor here draws
			// randomness, so the streams stay aligned until nodeState
			// restores the per-node RNG states.
			if c.Decoding() && cn.Spec.Class == flit.ClassVBR {
				cn.ni.Source = traffic.NewVBRSource(home.rng, n.cfg.Link, cn.Spec.Rate, cn.Spec.PeakRate, traffic.DefaultGoP())
			} else if c.Decoding() {
				cn.ni.Source = traffic.NewCBRSource(n.cfg.Link, cn.Spec.Rate, 0)
			}
			if next := c.source(cn.ni.Source, "connection", i); cn.open {
				c.inStep(cn.ni.LastTick, next, "connection", i)
			}
		}
		seq(c, cn.ni.Queue.Len(), "interface queue", cn.ni.Queue.At, c.flit, cn.ni.Queue.Push)
		if c.Decoding() && c.Err() == nil {
			n.adoptConn(c, cn)
		}
	})
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
	// Trackers grow only at the ejecting node. Replaying connections in
	// ID order reproduces the per-destination slot assignment the live
	// admission path made when each connection was accepted.
	n.assignTrackerSlot(cn)
}

// flowState: the best-effort flows, in registry order.
func (n *Network) flowState(c *codec) {
	c.I64((*int64)(&n.nextFlowID))
	each(c, &n.beFlows, nil, 64, "best-effort flows", func(i int, pbf **beFlow) {
		if c.Decoding() {
			*pbf = &beFlow{}
		}
		bf := *pbf
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
		if c.Decoding() && tag == 0 {
			// The constructor draws one inter-arrival from the node RNG;
			// the draw is undone when nodeState restores the RNG, and the
			// state below reinstates the true next arrival.
			bf.ni.Source = traffic.NewBestEffortSource(home.rng, 1)
		} else if c.Decoding() && tag == 1 {
			bf.ni.Source = traffic.NewCBRSource(n.cfg.Link, 0, 0)
		}
		next := c.source(bf.ni.Source, "best-effort flow", i) // fails on any other tag: no generator
		c.I64(&bf.ni.LastTick)
		c.I64(&bf.ni.NextDue)
		c.inStep(bf.ni.LastTick, next, "best-effort flow", i)
		seq(c, bf.ni.Queue.Len(), "flow interface queue", bf.ni.Queue.At, c.flit, bf.ni.Queue.Push)
		if c.Decoding() {
			home.beSrc = append(home.beSrc, bf)
		}
	})
}

// nodeState: one router and its host interface.
func (n *Network) nodeState(c *codec, nd *node) {
	c.rng(nd.rng)
	c.I64(&nd.pktSeq)
	c.I64(&nd.LastRound)

	// The fabric reads only the sum of the sink's stream classes, and the
	// format keeps only it: a restored node counts it all as CBR.
	d, sk := &nd.stats, &nd.stats.sink
	streams := sk.Streams()
	c.I64(&d.generated)
	c.I64(&streams)
	c.I64(&d.linkFlits)
	c.I64(&d.beGenerated)
	c.I64(&sk.Delivered[flit.ClassBestEffort])
	c.acc(&sk.Latency[flit.ClassBestEffort])
	c.I64(&d.flitsDropped)
	c.I64(&d.flitsCorrupted)
	if c.Decoding() {
		sk.Delivered[flit.ClassCBR], sk.Delivered[flit.ClassVBR] = streams, 0
	}

	// One tracker slot per connection ejecting here; adoptConn has grown
	// the tracker to the restored connections' count.
	tr := &sk.Tracker
	c.fixed(tr.NumConns(), "tracked connections")
	c.acc(tr.Delay())
	c.acc(tr.Jitter())
	for i := 0; i < tr.NumConns() && c.Err() == nil; i++ {
		c.acc(tr.ConnDelay(i))
		c.acc(tr.ConnJitter(i))
		prev, seen := tr.ConnBaseline(i)
		c.F64(&prev)
		c.Bool(&seen)
		tr.RestoreBaseline(i, prev, seen)
	}

	for p := range nd.Mems {
		n.portState(c, nd, p)
	}

	// Channel mappings, input → output, ascending by input (port, VC).
	maps := c.maps[:0]
	nd.cmap.ForEach(func(in, out routing.VCRef) { maps = append(maps, [2]routing.VCRef{in, out}) })
	seq(c, len(maps), "channel mappings", func(i int) [2]routing.VCRef { return maps[i] }, func(m *[2]routing.VCRef) {
		c.vcRef(&m[0])
		c.vcRef(&m[1])
	}, func(m [2]routing.VCRef) {
		if err := nd.cmap.Map(m[0], m[1]); err != nil {
			c.Failf("network: checkpoint channel map on node %d: %v", nd.id, err)
		}
	})
	c.maps = maps[:0]

	// The metric shard, in place: its shape is the registry's, which the
	// build fixes, not the payload.
	counters, gauges, histBuf, histCount, histSum := nd.ms.ExportState()
	table(c, counters, "metric counters", c.I64)
	table(c, gauges, "metric gauges", c.F64)
	table(c, histBuf, "histogram buckets", c.I64)
	table(c, histCount, "histogram counts", c.I64)
	table(c, histSum, "histogram sums", c.F64)

	// The flight recorder: retained events oldest first, then the
	// lifetime total (replaying through Record resets it).
	evs := nd.rec.Events(nil)
	seq(c, len(evs), "flight events", func(i int) metrics.Event { return evs[i] }, func(ev *metrics.Event) {
		c.I64(&ev.Cycle)
		c.U16(&ev.Code)
		nodeIdx(c, &ev.Node)
		num(c, &ev.A)
		num(c, &ev.B)
		c.I64(&ev.Aux)
	}, nd.rec.Record)
	total := nd.rec.Total()
	c.I64(&total)
	nd.rec.SetTotal(total)
}

// portState: everything router nd keeps per port p — the input side's
// VC memory, shadow credits and upstream pointers, the output side's
// bandwidth registers, the link scheduler, and the two outbound lanes.
func (n *Network) portState(c *codec, nd *node, p int) {
	mem, depth := nd.Mems[p], n.cfg.Depth

	// The vectors pick the VCs: a port has no records before its first reservation.
	c.sparse("reserved VCs", mem.ReservedVector().Test, func(v int) {
		st, serviced := vcm.VCState{InUse: true}, 0 // RestoreState sets the reserved bit
		if !c.Decoding() {
			st, serviced = *mem.State(v), mem.Serviced(v)
		}
		connIdx(c, &st.Conn)
		class(c, &st.Class)
		c.Int(&st.Allocated)
		c.Int(&st.Peak)
		c.Int(&serviced)
		c.Int(&st.BasePriority)
		bias := 0.0 // retired: VCState.Bias, which nothing ever wrote
		c.F64(&bias)
		c.F64(&st.InterArrival)
		idx(c, &st.Output, -1, n.cfg.radix(), "output port") // -1: an unrouted packet
		mem.RestoreState(v, st)
		mem.SetServiced(v, serviced)
	})

	c.sparse("buffered VCs", mem.FlitsAvailable().Test, func(v int) {
		mem.Materialize() // flits where nothing is reserved fail the audit, not Push
		seq(c, mem.Len(v), "buffered flits", func(i int) *flit.Flit { return mem.FlitAt(v, i) }, c.flit, func(f *flit.Flit) {
			if !mem.Push(v, f) {
				c.Failf("network: checkpoint overflows VC %d on node %d port %d", v, nd.id, p)
			}
		})
	})

	shadow := nd.Credits[p]
	c.sparse("shadow credits", func(v int) bool { return shadow.Available(v) != depth }, func(v int) {
		avail := shadow.Available(v)
		c.Range(&avail, 0, depth+1, "credit count")
		shadow.SetAvailable(v, avail)
	})

	ups := nd.upstream[p]
	c.sparse("upstream refs", func(v int) bool { return ups[v] != noUpstream }, func(v int) { c.upRef(&ups[v]) })

	a := nd.Alloc[p]
	guaranteed, peak, conns := a.Guaranteed(), a.PeakTotal(), a.Connections()
	c.Range(&guaranteed, 0, math.MaxInt, "guaranteed bandwidth")
	c.Range(&peak, 0, math.MaxInt, "peak bandwidth")
	c.Range(&conns, 0, math.MaxInt, "admitted connections")
	a.RestoreState(guaranteed, peak, conns)

	excess, lc := nd.Links[p].ExportState()
	c.Range(&excess, -1, n.cfg.VCs, "excess VC") // -1: none elected
	c.I64(&lc.Nominated)
	c.I64(&lc.CreditStalled)
	c.I64(&lc.RoundExhausted)
	c.I64(&lc.BiasBoosted)
	nd.Links[p].RestoreState(excess, lc)

	// The outbound lanes' undelivered entries, oldest first.
	lane(c, &nd.out[p].flits, "pipe entries", func(lf *linkFlit) {
		vcIdx(c, &lf.vc)
		c.flit(&lf.f)
	})
	lane(c, &nd.out[p].credits, "credit entries", c.upRef)
}

// flit walks one flit and the packet it may carry. Probe-carrying
// packets never appear in the network datapath (establishment is
// synchronous); hitting one is a checkpoint bug, not a user error.
func (c *codec) flit(pf **flit.Flit) {
	if c.Decoding() {
		*pf = c.n.pool.Get()
	}
	f := *pf
	connIdx(c, &f.Conn)
	class(c, &f.Class)
	c.U8((*uint8)(&f.Type))
	c.I64(&f.Seq)
	c.I64(&f.CreatedAt)
	c.I64(&f.ReadyAt)
	c.I64(&f.HeadAt)
	num(c, &f.SrcPort)
	num(c, &f.DstPort)
	nodeIdx(c, &f.Src)
	nodeIdx(c, &f.Dst)
	carries := f.Packet != nil
	c.Bool(&carries)
	if f.Class.IsStream() && f.Conn == flit.InvalidConn {
		c.Failf("network: checkpoint holds a %v flit of no connection", f.Class) // eject indexes conns by it
	}
	if !carries {
		return
	}
	if c.Decoding() {
		f.Packet = c.n.pool.GetPacket()
	}
	pk := f.Packet
	if pk.Probe != nil {
		c.Failf("network: cannot checkpoint a probe-carrying packet (packet %d)", pk.ID)
	}
	c.I64(&pk.ID)
	c.U8((*uint8)(&pk.Kind))
	num(c, &pk.Src)
	num(c, &pk.Dst)
	c.Int(&pk.Size)
	c.I64(&pk.CreatedAt)
	c.Bool(&pk.WentDown)
}

// journalState: the event engine's counter, the durable-event journal in
// insertion order, and the pending OpenWithRetry requests in ID order,
// returned because the trailer lists their tenants in the same order.
func (n *Network) journalState(c *codec) (retryIDs []int64) {
	fired := n.events.Fired()
	c.U64(&fired)
	engineNow := max(n.now-1, 0)
	if c.Decoding() && c.Err() == nil {
		n.events.SetClock(sim.Time(engineNow), fired)
	}

	seqs := sortedKeys(n.durables, cmp.Compare[uint64])
	seq(c, len(seqs), "durable events", func(i int) durableEvent { return *n.durables[seqs[i]] }, func(ev *durableEvent) {
		c.I64(&ev.at)
		c.U8((*uint8)(&ev.kind))
		c.I64(&ev.a)
		c.I64(&ev.b)
	}, func(ev durableEvent) {
		// What fireDurable and the event engine take on trust: a deadline
		// not in the engine's past, and an operand inside what the kind
		// indexes. An unknown kind indexes nothing, so no operand fits.
		limit := map[durableKind]int{durFault: len(n.faultSchedule), durRestore: len(n.conns),
			durOpenRetry: math.MaxInt, durPromote: math.MaxInt}[ev.kind]
		if ev.at < engineNow || ev.a < 0 || ev.a >= int64(limit) {
			c.Failf("network: checkpoint journal event (kind %d, operand %d, cycle %d) is out of range", ev.kind, ev.a, ev.at)
			return
		}
		n.scheduleDurable(ev.at, ev.kind, ev.a, ev.b)
	})

	retryIDs = sortedKeys(n.openRetries, cmp.Compare[int64])
	each(c, &retryIDs, nil, 64, "open retries", func(_ int, id *int64) {
		c.I64(id)
		or := n.openRetries[*id]
		if or == nil { // decoding: the request is filed before its fields are read
			or = &openRetry{}
			n.openRetries[*id] = or
		}
		// The request's endpoints are checked where it is attempted.
		c.Int(&or.req.Src)
		c.Int(&or.req.Dst)
		c.spec(&or.req.Spec)
		c.Int(&or.attempt)
	})
	c.I64(&n.nextOpenID)
	return retryIDs
}

// tenantState is the trailer format 4 appended: tenant owners (the
// connections in ID order, then the open retries in theirs), the quota
// table in name order, and the re-promotion bookkeeping.
func (n *Network) tenantState(c *codec, retryIDs []int64) {
	for _, cn := range n.conns {
		c.String(&cn.Tenant)
	}
	for _, id := range retryIDs {
		c.String(&n.openRetries[id].req.Tenant)
	}
	names := slices.DeleteFunc(n.tenants.Names(), func(name string) bool {
		_, has := n.tenants.Quota(name)
		return !has // usage without a quota is recomputed, not stored
	})
	each(c, &names, nil, 20, "tenant quotas", func(_ int, name *string) {
		c.String(name)
		q, _ := n.tenants.Quota(*name)
		c.Range(&q.MaxSessions, 0, math.MaxInt, "session quota")
		c.Range(&q.MaxGuaranteed, 0, math.MaxInt, "bandwidth quota")
		n.tenants.SetQuota(*name, q)
	})
	c.I64(&n.m.ConnsPromoted)
	c.I64(&n.promoteGen)
}
