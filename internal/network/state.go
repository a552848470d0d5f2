package network

import (
	"cmp"
	"math"
	"slices"

	"mmr/internal/checkpoint"
	"mmr/internal/flit"
	"mmr/internal/flow"
	"mmr/internal/metrics"
	"mmr/internal/routing"
	"mmr/internal/sim"
	"mmr/internal/stats"
	"mmr/internal/traffic"
)

// state.go is the checkpoint payload, format version 6, written once:
// Network.state walks every serialized field in payload order through a
// codec that either appends the field (EncodeState) or reads it back
// (RestoreState). Nothing else knows the order or width of a field. The
// sections are in state_fabric.go (fabric-wide) and state_node.go (a
// router).
//
// What is deliberately NOT serialized, because it is recomputed or
// provably empty at a cycle boundary: routing tables (recomputed from link
// state), VCM status bit vectors (rebuilt by RestoreState/Push), per-cycle
// scheduling scratch (cands/grants/grantVC), staged drop credits and claim
// slots (always empty/-1 between cycles — enforced), flit pools (pooling
// is unobservable), the wake table and source calendars (a fresh fabric
// derives them in its first cycle), tenant usage and telemetry slots and
// the degraded-session count (recomputed from the restored connections),
// and what counts this process's work rather than the simulation's: the
// idle-skip counter and the Cores' sched.Work. The link schedulers'
// LinkCounters are serialized: the *_sched_* counters mirror them.
//
// Decoding trusts nothing: every value a later line — here, in
// CheckInvariants or in the datapath — indexes by goes through a
// range-checked leaf (nodeIdx, portIdx, vcIdx, connIdx, Range) and every
// count through Count, so a damaged payload is an error, never a panic.
// A sequence is a plain loop over its count, its element either a slice's
// own, filled in place, or a local the leaves take by pointer: read from
// its owner's list when encoding (checkpoint.At), handed to its owner when
// decoding. The lists are built in both directions: a fresh fabric's
// owners list nothing. State behind an export/restore pair (an RNG, an
// accumulator, a register file) is exported, run through the leaves and
// restored in both directions.

// codec is the walk's cursor: the payload codec, the fabric whose
// geometry bounds every index, and the encoder's reused lists.
type codec struct {
	*checkpoint.Codec
	n      *Network
	vcs    []int              // a sparse per-VC table's listed VCs
	mapped [][2]routing.VCRef // a node's channel mappings
	events []metrics.Event    // a node's flight events
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

// sized walks the length of slice *xs, whose elements encode to at least
// width bytes each, and returns it. Decoding, it first makes *xs that many
// zero elements (none: as a fresh fabric has it) for the caller to fill in
// place, carved from arena when one is given, as a new session's route is.
func sized[T any](c *codec, xs *[]T, arena *[]T, width int, what string) int {
	k := c.CountOf(len(*xs), width, what)
	switch {
	case !c.Decoding() || k == 0:
	case arena != nil:
		*xs = refit(*xs, arena, k)[:k]
	default:
		*xs = make([]T, k)
	}
	return k
}

// vc walks the index of the i-th VC a sparse per-VC table lists: c.vcs's
// when encoding.
func (c *codec) vc(i int) int {
	v := checkpoint.At(c.Codec, c.vcs, i)
	vcIdx(c, &v)
	return v
}

// sortedKeys returns m's keys in ascending order, so a map serializes the
// same way every time.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
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

// injector walks a host interface: its source's evolving state, if it
// has a source (a decoding caller has built it, the constructor its
// geometry), the cycle it last ticked and when it is next due, then the
// flits it has queued. A live source must be as quiesce left it — ticked
// through the last cycle, its next arrival at cycle 0 or later (an
// unticked source keeps its constructor's) — so that its first tick
// replays the gap.
func (c *codec) injector(ni *traffic.Injector, live bool, what string, id int) {
	next := math.Inf(1)
	switch s := ni.Source.(type) {
	case nil:
	case *traffic.CBRSource:
		st := s.ExportState()
		c.share(&st.PerCycle, "CBR rate")
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
		c.share(&st.Rate, "best-effort rate")
		c.F64(&st.Next)
		s.RestoreState(st)
		next = st.Next
	default:
		c.Failf("network: %s %d has unserializable generator %T", what, id, s)
	}
	c.I64(&ni.LastTick)
	c.I64(&ni.NextDue)
	if c.Decoding() && live && (ni.LastTick != c.n.now-1 || !(next >= 0)) {
		c.Failf("network: checkpoint %s %d has a source out of step with the clock", what, id)
	}
	for i, k := 0, c.Count(ni.Queue.Len(), "interface queue"); i < k && c.Err() == nil; i++ {
		var f *flit.Flit
		if !c.Decoding() {
			f = ni.Queue.At(i)
		}
		c.flit(&f)
		if c.Decoding() && c.Err() == nil {
			ni.Queue.Push(f)
		}
	}
}

// share walks a rate a source ticks by, in flits a cycle: one a host link
// can carry, at most 1. A larger one mints without bound, a negative or
// non-numeric one never advances.
func (c *codec) share(p *float64, what string) {
	c.F64(p)
	if c.Decoding() && !(*p >= 0 && *p <= 1) {
		c.Failf("network: checkpoint %s %v is outside [0,1]", what, *p)
	}
}

// flit walks one flit, a packet's destination and up*/down* bit included.
func (c *codec) flit(pf **flit.Flit) {
	if c.Decoding() {
		*pf = c.n.pool.Get()
	}
	f := *pf
	connIdx(c, &f.Conn)
	class(c, &f.Class)
	c.I64(&f.CreatedAt)
	c.I64(&f.ReadyAt)
	c.I64(&f.HeadAt)
	nodeIdx(c, &f.Dst)
	c.Bool(&f.WentDown)
	if f.Class.IsStream() && f.Conn == flit.InvalidConn {
		c.Failf("network: checkpoint holds a %v flit of no connection", f.Class) // eject indexes conns by it
	}
}

// lane walks a staging lane's undelivered entries, oldest first: each
// one's arrival cycle, then its flit or credit.
func lane[T linkFlit | upRef](c *codec, l *flow.Lane[T], what string) {
	pending := l.Pending()
	for i, k := 0, c.Count(len(pending), what); i < k && c.Err() == nil; i++ {
		e := checkpoint.At(c.Codec, pending, i)
		c.I64(&e.At)
		switch v := any(&e.V).(type) {
		case *linkFlit:
			vcIdx(c, &v.vc)
			c.flit(&v.f)
		case *upRef:
			c.upRef(v)
		}
		if c.Decoding() && c.Err() == nil {
			l.Push(e.At, e.V)
		}
	}
}

// state is format version 6: every serialized field of the fabric, in
// payload order.
func (n *Network) state(c *codec) error {
	idx(c, &n.now, 0, math.MaxInt, "clock")
	c.rng(n.rng)
	n.linkState(c)
	n.netStatsState(c)
	n.sessionLogState(c)
	n.impairState(c)
	n.faultScheduleState(c)
	n.quotaState(c)
	n.connState(c)
	n.flowState(c)
	for _, nd := range n.nodes {
		n.nodeState(c, nd)
	}
	n.journalState(c)
	return c.Err()
}
