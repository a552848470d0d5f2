package router

import (
	"strconv"

	"mmr/internal/admission"
	"mmr/internal/bitvec"
	"mmr/internal/flit"
	"mmr/internal/flow"
	"mmr/internal/metrics"
	"mmr/internal/sched"
	"mmr/internal/sim"
	"mmr/internal/traffic"
	"mmr/internal/vcm"
)

// Core is the router of Figure 1 and the flit cycle of §3.4, once: per
// input port a virtual channel memory, a link scheduler and the credit
// counters it nominates against, per output link the §4.2 bandwidth
// registers, and one switch scheduler. Both engines hold it by value and
// step it through the same stages —
//
//	BeginCycle  round boundary (§4.1)
//	Enqueue     a flit enters an input virtual channel
//	Nominate    link scheduling (§4.3)
//	Arbitrate   switch scheduling (§4.4)
//	Pop         a granted flit leaves its virtual channel
//
// — and add around it what is theirs: Router the sink and the asynchronous
// control cut-through of the single-chip experiments,
// network's node the lanes, channel mappings and routing unit of a fabric.
// Core also owns what a reservation at one hop is (§4.2–4.3): a stream's
// Demand, its charge to an output's registers in the configured admission
// mode (AdmitAt, ReleaseAt, AdjustAt), its VC's allocation and aging interval
// (Retune), and a buffered packet's VC (BufferPacket); the engines keep only
// their base priorities and error texts.
//
// All ports' memories, schedulers and credit counters are single
// contiguous allocations (the per-port slices hold interior pointers), and
// the link schedulers share one scratch. A Core must not be copied once Init
// has run: the memories count their flits into Occ and Busy.
type Core struct {
	Mems    []*vcm.Memory              // per input port
	Links   []*sched.LinkScheduler     // per input port
	Credits []*flow.Credits            // per input port: the downstream buffers its VCs' flits move into
	Alloc   []*admission.LinkAllocator // per output link
	arbiter sched.SwitchScheduler

	// Cands[in] is input in's nominations this cycle, best first, and
	// Grants[in] the index into it the switch scheduler granted, or
	// sched.NoGrant. Nominated lists, ascending, the inputs that nominated
	// (with gating off, every input): the others have no candidate and no
	// grant, so what follows nomination walks the list, not the ports.
	Cands     [][]sched.Candidate
	Grants    []int
	Nominated []int

	// Occ is the number of flits buffered across every input port and Busy
	// has bit p set while input p buffers any, kept by the memories as they
	// push and pop: "any buffered flit?" is one load, "where?" a word scan.
	Occ  int64
	Busy bitvec.Vector
	Work sched.Work // exact counts of what the stages below did

	// LastRound is the last round whose boundary reset ran (BeginCycle).
	LastRound int64

	roundLen int64
	link     traffic.Link
}

// Init builds the core cfg describes; randomized selection and matching
// draw from rng, and a memory's first reservation carves from store.
func (c *Core) Init(cfg *Config, rng *sim.RNG, store *vcm.Store) error {
	ports, vcs := cfg.Ports, cfg.VCM.VirtualChannels
	*c = Core{
		Mems:      make([]*vcm.Memory, ports),
		Links:     make([]*sched.LinkScheduler, ports),
		Credits:   make([]*flow.Credits, ports),
		Alloc:     make([]*admission.LinkAllocator, ports),
		Cands:     make([][]sched.Candidate, ports),
		Grants:    make([]int, ports),
		Nominated: make([]int, 0, ports),
		LastRound: -1,
		roundLen:  int64(cfg.RoundLen()),
		link:      cfg.Link,
	}
	c.Busy.Init(ports)
	mems := make([]vcm.Memory, ports)
	links := make([]sched.LinkScheduler, ports)
	counts := make([]uint8, ports*vcs)
	scratch := sched.NewLinkScratch(vcs, ports, &c.Work)
	for p := 0; p < ports; p++ {
		if err := vcm.Init(&mems[p], cfg.VCM, store); err != nil {
			return err
		}
		mems[p].BindOccupancy(&c.Occ, &c.Busy, p)
		c.Mems[p] = &mems[p]
		c.Credits[p] = flow.NewCreditsBacked(cfg.VCM.Depth, counts[p*vcs:(p+1)*vcs:(p+1)*vcs])
		sched.InitLinkScheduler(&links[p], sched.LinkConfig{
			Input:         p,
			MaxCandidates: cfg.MaxCandidates,
			Scheme:        cfg.Scheme,
			Selection:     cfg.Selection,
			RNG:           rng,
		}, c.Mems[p], c.Credits[p], scratch)
		c.Links[p] = &links[p]
		a, err := admission.NewLinkAllocator(cfg.RoundLen(), 0, cfg.Concurrency)
		if err != nil {
			return err
		}
		if cfg.Admission == AdmitRate {
			a.UseRates(float64(cfg.Link.Bandwidth))
		}
		c.Alloc[p] = a
	}
	iters := cfg.ArbiterIters
	if iters < 1 && (cfg.Arbiter == ArbAutonet || cfg.Arbiter == ArbISLIP) {
		iters = 3
	}
	switch cfg.Arbiter {
	case ArbAutonet:
		c.arbiter = sched.NewPIMArbiter(rng, iters)
	case ArbPerfect:
		c.arbiter = sched.PerfectSwitch{}
	case ArbISLIP:
		c.arbiter = sched.NewISLIPArbiter(iters)
	default:
		c.arbiter = sched.NewPriorityArbiter(iters)
	}
	return nil
}

// BeginCycle resets the per-round service counters (§4.1) if cycle t is the
// first this core steps in its round. Lazy: cycles an engine elides catch
// up here. Equivalent to the eager modulo check because the counters and
// the excess election are frozen — and unread — while the core is idle,
// the reset runs before any scheduling of the cycle, and one reset covers
// any number of skipped boundaries (it is idempotent).
func (c *Core) BeginCycle(t int64) {
	if round := t / c.roundLen; c.LastRound != round {
		c.LastRound = round
		for _, ls := range c.Links {
			ls.OnRoundBoundary()
		}
	}
}

// Enqueue buffers f in VC vc of input in at cycle t, stamping its entry and
// — at the head, ready to cross the switch — §5's delay reference point. It
// reports false if the VC is full; no caller lets that pass, so Work counts calls.
func (c *Core) Enqueue(in, vc int, f *flit.Flit, t int64) bool {
	mem := c.Mems[in]
	f.ReadyAt = t
	if mem.Len(vc) == 0 {
		f.HeadAt = t
	}
	c.Work.Enqueued++
	return mem.Push(vc, f)
}

// Feed moves flits from q, a stream's network interface queue, into its VC
// vc of input in at cycle t while the VC has room (§4.2's source-side flow
// control): after a source ticks, and at once when a pop frees a slot.
func (c *Core) Feed(in, vc int, q *flit.Ring, t int64) {
	for c.CanFeed(in, vc, q) {
		c.Enqueue(in, vc, q.Pop(), t)
	}
}

// CanFeed reports whether Feed would move a flit.
func (c *Core) CanFeed(in, vc int, q *flit.Ring) bool {
	return q.Len() > 0 && c.Mems[in].Free(vc) > 0
}

// Nominate runs the inputs' link schedulers (§4.3) on the state the
// previous cycle left — in hardware, arbitration for cycle t overlaps
// transmission of cycle t-1. With skipIdle (the engine's activity gating,
// read from its Config every cycle; off is the reference, which runs every
// port) the loop walks Busy's set bits: Candidates on a memory that buffers
// nothing is a pure no-op (sched.LinkScheduler.Candidates).
func (c *Core) Nominate(t int64, skipIdle bool) {
	for _, p := range c.Nominated {
		c.Cands[p] = c.Cands[p][:0]
	}
	c.Nominated = c.Nominated[:0]
	for p := 0; p < len(c.Links); p++ {
		if skipIdle {
			if p = c.Busy.NextSet(p); p < 0 {
				break
			}
		}
		c.Cands[p] = c.Links[p].Candidates(t, c.Cands[p][:0])
		c.Work.PortsScanned++
		if len(c.Cands[p]) > 0 || !skipIdle {
			c.Nominated = append(c.Nominated, p)
		}
	}
}

// Arbitrate runs the switch scheduler (§4.4) over Cands into Grants. With
// nothing nominated every scheduler grants nothing, drawing no RNG and
// moving no pointer, so a gated Nominate that found nothing has that result
// written directly. (The engine may have removed candidates since Nominate,
// never added any.)
func (c *Core) Arbitrate() {
	if len(c.Nominated) == 0 {
		for in := range c.Grants {
			c.Grants[in] = sched.NoGrant
		}
		return
	}
	c.arbiter.Schedule(c.Cands, c.Grants)
}

// Pop takes the flit input in was granted out of its virtual channel at
// cycle t: the VC is charged one flit cycle of its round (§4.3) and the
// next flit, if any, reaches the head now.
func (c *Core) Pop(in int, t int64) (sched.Candidate, *flit.Flit) {
	cand := c.Cands[in][c.Grants[in]]
	mem := c.Mems[in]
	f := mem.Pop(cand.VC)
	if f == nil {
		panic("router: granted VC has no flit")
	}
	mem.IncServiced(cand.VC)
	c.Work.Grants++
	if next := mem.Peek(cand.VC); next != nil {
		next.HeadAt = t
	}
	return cand, f
}

// Demand is a stream's reservation at one hop in flit cycles per round
// (§4.2): Alloc guaranteed, and Peak — a VBR stream's peak, never below its
// Alloc; a CBR stream's Alloc.
type Demand struct{ Alloc, Peak int }

// DemandOf converts spec's rates into the core's allocation units.
func (c *Core) DemandOf(spec traffic.ConnSpec) Demand {
	d := Demand{Alloc: c.link.CyclesPerRound(spec.Rate, int(c.roundLen))}
	d.Peak = d.Alloc
	if spec.Class == flit.ClassVBR {
		d.Peak = max(d.Alloc, c.link.CyclesPerRound(spec.PeakRate, int(c.roundLen)))
	}
	return d
}

// AdmitAt charges stream spec, holding d, to output out's two registers
// (§4.2) — a CBR stream its allocation, a VBR stream its allocation and its
// peak; under AdmitRate their rates — or, when it does not fit, charges
// nothing and reports false.
func (c *Core) AdmitAt(out int, spec traffic.ConnSpec, d Demand) bool {
	return c.Alloc[out].Admit(spec.Class == flit.ClassVBR, d.Alloc, d.Peak, float64(spec.Rate), float64(spec.PeakRate))
}

// ReleaseAt returns what AdmitAt charged.
func (c *Core) ReleaseAt(out int, spec traffic.ConnSpec, d Demand) {
	c.Alloc[out].Release(spec.Class == flit.ClassVBR, d.Alloc, d.Peak, float64(spec.Rate), float64(spec.PeakRate))
}

// AdjustAt moves a CBR stream's charge at output out from what spec from
// holds to what to asks for; growth is admission-tested (§4.3's dynamic
// bandwidth management), shrinking always succeeds.
func (c *Core) AdjustAt(out int, from, to traffic.ConnSpec) bool {
	return c.Alloc[out].Adjust(c.DemandOf(to).Alloc-c.DemandOf(from).Alloc, float64(to.Rate-from.Rate))
}

// Retune makes stream VC vc of input in hold d, at establishment and at
// each renegotiation: its allocation and peak, and the interval the biased
// scheme normalizes a head flit's waiting time by — the guaranteed service
// interval roundLen/Alloc, the QoS metric the router holds for the
// connection (§4.4: priorities grow "at a rate [that] is a function of the
// QoS metric used for the corresponding connection"). For connections
// whose allocation is not quantized up this equals the flit inter-arrival
// time; for very slow connections it caps the aging horizon at one round,
// keeping their delay (and hence jitter) bounded by the round length
// rather than by their enormous inter-arrival times.
func (c *Core) Retune(in, vc int, d Demand) {
	st := c.Mems[in].State(vc)
	st.Allocated, st.Peak = d.Alloc, d.Peak
	st.InterArrival = float64(c.roundLen) / float64(d.Alloc)
}

// BufferPacket takes a free VC of input in (vcm.Memory.PickFree, drawing
// from rng) for packet flit f bound for output out (-1: not routed yet) and
// buffers f there at cycle t. With every VC in use it takes nothing and
// reports false.
func (c *Core) BufferPacket(in, out int, f *flit.Flit, t int64, rng *sim.RNG) bool {
	mem := c.Mems[in]
	vc := mem.PickFree(rng)
	if vc < 0 {
		return false
	}
	mem.Reserve(vc, vcm.VCState{Conn: flit.InvalidConn, Class: f.Class, Output: out})
	c.Enqueue(in, vc, f, t)
	return true
}

// CoreSeries are the handles of the series an engine mirrors out of its
// Core at gather time (RegisterCore).
type CoreSeries struct {
	// The link schedulers' event counters (sched.LinkCounters), summed
	// over the input ports.
	Nominated, CreditStalled, RoundExhausted, BiasBoosted metrics.Counter
	// Per port: flits buffered and VCs in use at the input, the
	// guaranteed-bandwidth fraction allocated at the output.
	VCOccupied, VCReserved, GuaranteedLoad []metrics.Gauge
}

// RegisterCore registers on reg the series Mirror fills, named under prefix:
// the four link-scheduler counters, then port by port for ports ports the
// three gauges. Where the call falls among an engine's own registrations is
// the engine's series order (the fabric's rides its checkpoints).
func RegisterCore(reg *metrics.Registry, prefix string, ports int) CoreSeries {
	s := CoreSeries{
		Nominated:      reg.Counter(prefix+"_sched_nominated_total", "candidates handed to the switch arbiter"),
		CreditStalled:  reg.Counter(prefix+"_sched_credit_stalled_total", "VC-cycles with a flit buffered but no downstream credit"),
		RoundExhausted: reg.Counter(prefix+"_sched_round_exhausted_total", "VC-cycles passed over: per-round allocation consumed"),
		BiasBoosted:    reg.Counter(prefix+"_sched_bias_boosted_total", "eligible VC-cycles whose dynamic priority the bias lifted above base, nominated or not"),
	}
	for p := 0; p < ports; p++ {
		port := strconv.Itoa(p)
		s.VCOccupied = append(s.VCOccupied, reg.Gauge(prefix+"_vc_occupied_flits", "flits buffered per input port", "port", port))
		s.VCReserved = append(s.VCReserved, reg.Gauge(prefix+"_vc_reserved", "virtual channels in use per input port", "port", port))
		s.GuaranteedLoad = append(s.GuaranteedLoad, reg.Gauge(prefix+"_guaranteed_load", "guaranteed-bandwidth fraction allocated per output port", "port", port))
	}
	return s
}

// Mirror copies the Core's live state into sh under the handles s.
func (c *Core) Mirror(sh *metrics.Shard, s *CoreSeries) {
	var sum sched.LinkCounters
	for p, link := range c.Links {
		lc := link.Counters()
		sum.Nominated += lc.Nominated
		sum.CreditStalled += lc.CreditStalled
		sum.RoundExhausted += lc.RoundExhausted
		sum.BiasBoosted += lc.BiasBoosted
		sh.Set(s.VCOccupied[p], float64(c.Mems[p].Occupied()))
		sh.Set(s.VCReserved[p], float64(c.Mems[p].ReservedVector().Count()))
		sh.Set(s.GuaranteedLoad[p], c.Alloc[p].GuaranteedLoad())
	}
	sh.Store(s.Nominated, sum.Nominated)
	sh.Store(s.CreditStalled, sum.CreditStalled)
	sh.Store(s.RoundExhausted, sum.RoundExhausted)
	sh.Store(s.BiasBoosted, sum.BiasBoosted)
}
