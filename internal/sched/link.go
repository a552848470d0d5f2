package sched

import (
	"math/bits"

	"mmr/internal/bitvec"
	"mmr/internal/flit"
	"mmr/internal/flow"
	"mmr/internal/sim"
	"mmr/internal/vcm"
)

// Selection is how a link scheduler picks its candidate set from the
// eligible virtual channels. The paper's scheme ranks by priority; the
// Autonet comparison picks at random (§5.1: the algorithms differ "in how
// the candidates are selected at input links").
type Selection int

// Candidate-selection policies.
const (
	SelectPriority Selection = iota
	SelectRandom
)

// LinkConfig configures one input port's link scheduler.
type LinkConfig struct {
	Input         int
	MaxCandidates int // the paper sweeps 1, 2, 4, 8 (§5)
	// Outputs is the router's output port count, sizing the per-output
	// slot and pick tables of a scheduler built with NewLinkScheduler. Zero
	// is allowed (the tables grow on first use) but costs allocations as
	// new high-water output indices appear.
	Outputs   int
	Scheme    PriorityScheme
	Selection Selection
	RNG       *sim.RNG // required for SelectRandom
}

// LinkScheduler nominates up to MaxCandidates virtual channels from one
// input port each flit cycle, honoring the §4.3 service order: buffered
// control packets, then CBR allocations and VBR permanent bandwidth, then
// VBR excess bandwidth by priority (completing one connection's excess
// before the next), then best-effort. Bandwidth enforcement is per round:
// a VC that has consumed its allocation waits for the next round.
type LinkScheduler struct {
	cfg     LinkConfig
	mem     *vcm.Memory
	credits *flow.Credits
	*LinkScratch

	// excessVC is the VBR connection currently draining its excess
	// bandwidth (§4.3 serves excess one connection at a time). -1 if none.
	excessVC int

	counters LinkCounters
}

// LinkScratch is the working storage of a Candidates call, which leaves it
// clean, and the work ledger the call charges. A router's link schedulers
// run one after another, so they share one: the scratch stays hot across
// the ports instead of costing each port lines of its own.
type LinkScratch struct {
	eligible bitvec.Vector // flits ∧ credits
	// slot is the port-indexed table behind the per-output selection:
	// slot[o] is 1 + the position of output o's entry among this cycle's
	// per-output winners (picks, or the candidates SelectRandom appended),
	// or 0 while o has none. It is all zeros between calls.
	slot []int32
	// picks holds SelectPriority's per-output winners, sized to the slot
	// table by the first selection that needs it.
	picks   []pick
	shuffle []Candidate // SelectRandom only: the set Fisher–Yates permutes
	work    *Work
}

// pick is one output's running winner in the priority selection: the
// fields better orders one input's candidates by, and the output.
type pick struct {
	prio  float64
	vc    int32
	out   int32
	phase Phase
}

// losesTo reports whether a VC of the given phase and priority displaces p
// as its output's running winner: better with the tie-break dropped — VCs
// are visited in increasing order, so of equals the one already held stays.
func (p *pick) losesTo(phase Phase, prio float64) bool {
	return phase < p.phase || (phase == p.phase && prio > p.prio)
}

// before is better restricted to one input's candidates.
func (p *pick) before(q *pick) bool {
	if p.phase != q.phase {
		return p.phase < q.phase
	}
	if p.prio != q.prio {
		return p.prio > q.prio
	}
	return p.vc < q.vc
}

// NewLinkScratch returns scratch for schedulers over memories of vcs
// virtual channels nominating for the given number of outputs, charging
// work.
func NewLinkScratch(vcs, outputs int, work *Work) *LinkScratch {
	sc := &LinkScratch{slot: make([]int32, outputs), work: work}
	sc.eligible.Init(vcs)
	return sc
}

// Work is the exact count of what a router's scheduling stages did — one
// field per kind of event, charged where it happens, in the shape of
// Hornet's per-router statistics. The counts depend on the seed alone, so a
// test can gate on them on any host, which it cannot on a timer. They are
// not simulated state: nothing reads them back and no checkpoint holds them.
type Work struct {
	PortsScanned  int64 // link schedulers run
	VCsVisited    int64 // VC records a link scheduler loaded
	PriorityEvals int64 // PriorityScheme.Priority calls
	Candidates    int64 // candidates handed to the switch scheduler
	Grants        int64 // granted flits popped from their VC
	Enqueued      int64 // flits written into a VC
}

// LinkCounters are plain cumulative event counts a scheduler maintains
// as it runs. They live here rather than in the metrics registry so
// sched stays dependency-free; the observability layer mirrors them
// into counters at gather time.
type LinkCounters struct {
	// Nominated is the number of candidates handed to the switch arbiter.
	Nominated int64
	// CreditStalled counts VC-cycles where a VC had a flit buffered but
	// no downstream credit — the credit-starvation signal.
	CreditStalled int64
	// RoundExhausted counts VC-cycles where an eligible stream VC was
	// passed over because it had consumed its per-round allocation.
	RoundExhausted int64
	// BiasBoosted counts VC-cycles where an eligible VC's dynamic priority
	// was evaluated and exceeded its static base — i.e. the §5.1 bias
	// (waited time over inter-arrival) actually lifted the flit above its
	// resting priority — whether or not the VC was then nominated.
	BiasBoosted int64
}

// Counters returns the scheduler's cumulative event counts.
func (ls *LinkScheduler) Counters() LinkCounters { return ls.counters }

// NewLinkScheduler returns a scheduler over the port's VCM and its
// downstream credit state, with scratch of its own.
func NewLinkScheduler(cfg LinkConfig, mem *vcm.Memory, credits *flow.Credits) *LinkScheduler {
	ls := new(LinkScheduler)
	InitLinkScheduler(ls, cfg, mem, credits, NewLinkScratch(mem.NumVCs(), cfg.Outputs, new(Work)))
	return ls
}

// InitLinkScheduler initializes ls in place over scratch sc: a router lays
// its per-port schedulers out in one contiguous slice and Inits each
// element, so the cross-cycle scheduler state (excess election, counters)
// of adjacent ports shares cache lines instead of being scattered across
// the heap.
func InitLinkScheduler(ls *LinkScheduler, cfg LinkConfig, mem *vcm.Memory, credits *flow.Credits, sc *LinkScratch) {
	if cfg.MaxCandidates < 1 {
		cfg.MaxCandidates = 1
	}
	if cfg.Scheme == nil {
		cfg.Scheme = Biased{}
	}
	*ls = LinkScheduler{cfg: cfg, mem: mem, credits: credits, LinkScratch: sc, excessVC: -1}
}

// OnRoundBoundary resets per-round bandwidth accounting (§4.1: flit cycles
// are grouped into rounds; allocations are per round).
func (ls *LinkScheduler) OnRoundBoundary() {
	ls.mem.ResetRound()
	ls.excessVC = -1
}

// classify returns the service phase of the VC whose record is st, in the
// round stamped round; ok is false if the VC has exhausted its bandwidth
// for the round.
func classify(st *vcm.VCState, round uint32) (phase Phase, ok bool) {
	switch st.Class {
	case flit.ClassControl:
		return PhaseControl, true
	case flit.ClassCBR:
		if st.ServicedIn(round) < st.Allocated {
			return PhaseGuaranteed, true
		}
		return 0, false
	case flit.ClassVBR:
		serviced := st.ServicedIn(round)
		if serviced < st.Allocated {
			return PhaseGuaranteed, true
		}
		if serviced < st.Peak {
			return PhaseExcess, true
		}
		return 0, false
	default: // best-effort
		return PhaseBestEffort, true
	}
}

// Candidates appends up to MaxCandidates candidates for the next flit
// cycle to dst and returns the extended slice, best first. On a memory that
// buffers no flit it is a pure no-op — empty eligible set, zero
// CreditStalled, no RNG draw — and so it is on a port whose eligible VCs
// are all unrouted packets, which request no output: they touch no counter
// and have no say in the excess election. Both let a gating engine skip
// the port. dst receives at most MaxCandidates entries: a caller that wants
// no allocation passes a slice with that much room.
//
// The excess election (§4.3: one connection's excess at a time) settles in
// the same pass. A pass that meets a routed VC, but not the elected VC
// among the eligible excess VCs, elects the eligible excess VC of highest
// static priority (lowest index on ties), or none. The elected VC enters
// the set from the next call on, as hardware elects beside the cycle's
// arbitration.
//
// SelectPriority, the paper's selection (§4.3–4.4), wants the eligible VCs
// in phase order, by priority within a phase, and the first MaxCandidates
// distinct outputs. An input transmits at most one flit per cycle, so a
// second candidate for the same output can never improve the matching —
// spending candidate slots on distinct outputs is what makes more
// candidates raise switch utilization (§5.2), and the per-output winner is
// exactly what the output-side arbitration would pick anyway. The selection
// therefore needs a maximum per output, not an order over the eligible VCs:
// one pass over the eligibility words loads each eligible VC's record once,
// classifies it with the round account read from the record, prices it and
// keeps each output's running best as a pick (found through the slot
// table); only those at most Outputs picks are sorted, and Candidates are
// built for the survivors alone. better is a strict total order over one
// input's VCs, so this yields the same candidates in the same order as
// sorting every eligible VC and keeping the first MaxCandidates distinct
// outputs (referenceCandidates in the tests). The counts the pass charges
// go through locals, one store each per call.
func (ls *LinkScheduler) Candidates(now int64, dst []Candidate) []Candidate {
	flits := ls.mem.FlitsAvailable()
	ls.eligible.And(flits, ls.credits.Vector())
	// Buffered flits minus eligible flits is exactly the set with no
	// downstream credit — two popcounts, no extra pass.
	eligible := ls.eligible.Count()
	ls.counters.CreditStalled += int64(flits.Count() - eligible)
	if !ls.eligible.Any() {
		return dst
	}
	base := len(dst)
	ex := excessTally{heir: -1}
	if ls.cfg.Selection == SelectRandom {
		dst = ls.selectRandom(now, dst, &ex)
	} else {
		recs, round := ls.mem.Records(), ls.mem.Round()
		// Biased, the paper's scheme, is priced by a static (so inlined)
		// call, any other through the interface. Telling them apart is one
		// compare of the scheme's type word per call; a flag resolved at
		// Init would cost each scheduler a word (see docs/performance.md).
		_, biased := ls.cfg.Scheme.(Biased)
		// With one candidate the per-output bests collapse to the single
		// best overall: a plain running maximum, no slot table.
		single := ls.cfg.MaxCandidates == 1
		best := pick{vc: -1}
		picks, slot := ls.picks[:0], ls.slot
		var evals, exhausted, boosted int64
		for wi, w := range ls.eligible.Words() {
			for ; w != 0; w &= w - 1 {
				vc := wi*64 + bits.TrailingZeros64(w)
				st := &recs[vc]
				if st.Output < 0 {
					continue // unrouted VC (header still in the routing unit)
				}
				ex.routed = true
				phase, ok := classify(st, round)
				if !ok {
					exhausted++
					continue
				}
				if phase == PhaseExcess {
					// §4.3: drain one connection's excess completely
					// before the next. While an excess VC is elected,
					// the other excess VCs stand aside.
					ex.note(vc, st.BasePriority, ls.excessVC)
					if ls.excessVC >= 0 && vc != ls.excessVC {
						continue
					}
				}
				var prio float64
				if biased {
					prio = Biased{}.Priority(now, st)
				} else {
					prio = ls.cfg.Scheme.Priority(now, st)
				}
				evals++
				if prio > float64(st.BasePriority) {
					boosted++
				}
				if single {
					if best.vc < 0 || best.losesTo(phase, prio) {
						best = pick{prio: prio, vc: int32(vc), out: int32(st.Output), phase: phase}
					}
					continue
				}
				if st.Output >= len(slot) {
					// Only a scheduler built with too small a
					// LinkConfig.Outputs gets here.
					slot = ls.growSlots(st.Output)
				}
				if s := slot[st.Output]; s == 0 {
					if picks == nil {
						// The scratch's first selection for more than one
						// candidate: a router that never nominates holds
						// no table.
						picks = make([]pick, 0, len(slot))
					}
					picks = append(picks, pick{prio: prio, vc: int32(vc), out: int32(st.Output), phase: phase})
					slot[st.Output] = int32(len(picks))
				} else if cur := &picks[s-1]; cur.losesTo(phase, prio) {
					*cur = pick{prio: prio, vc: int32(vc), out: int32(st.Output), phase: phase}
				}
			}
		}
		in := ls.cfg.Input
		if single {
			if best.vc >= 0 {
				dst = append(dst, Candidate{Input: in, VC: int(best.vc), Output: int(best.out), Phase: best.phase, Priority: best.prio})
			}
		} else {
			if len(picks) > 1 {
				sortPicks(picks)
			}
			for i := range picks {
				p := &picks[i]
				slot[p.out] = 0
				if i < ls.cfg.MaxCandidates {
					dst = append(dst, Candidate{Input: in, VC: int(p.vc), Output: int(p.out), Phase: p.phase, Priority: p.prio})
				}
			}
			ls.picks = picks[:0] // keeps what an undersized table grew to
		}
		ls.counters.RoundExhausted += exhausted
		ls.counters.BiasBoosted += boosted
		ls.work.VCsVisited += int64(eligible) // every eligible VC's record, once
		ls.work.PriorityEvals += evals
	}
	if ex.routed && !ex.kept {
		ls.excessVC = ex.heir
	}
	ls.counters.Nominated += int64(len(dst) - base)
	ls.work.Candidates += int64(len(dst) - base)
	return dst
}

// selectRandom is the Autonet comparison's selection (§5.1): the eligible
// VCs in random order, the first MaxCandidates distinct outputs. It tallies
// the excess election in ex as Candidates' own pass does.
func (ls *LinkScheduler) selectRandom(now int64, dst []Candidate, ex *excessTally) []Candidate {
	base := len(dst)
	ls.shuffle = ls.shuffle[:0]
	for vc := ls.eligible.NextSet(0); vc >= 0; vc = ls.eligible.NextSet(vc + 1) {
		st := ls.mem.State(vc)
		ls.work.VCsVisited++
		if st.Output < 0 {
			continue // unrouted VC (header still in the routing unit)
		}
		ex.routed = true
		phase, ok := classify(st, ls.mem.Round())
		if !ok {
			ls.counters.RoundExhausted++
			continue
		}
		if phase == PhaseExcess {
			// §4.3: one connection's excess at a time (see Candidates).
			ex.note(vc, st.BasePriority, ls.excessVC)
			if ls.excessVC >= 0 && vc != ls.excessVC {
				continue
			}
		}
		prio := ls.cfg.Scheme.Priority(now, st)
		ls.work.PriorityEvals++
		if prio > float64(st.BasePriority) {
			ls.counters.BiasBoosted++
		}
		ls.shuffle = append(ls.shuffle, Candidate{Input: ls.cfg.Input, VC: vc, Output: st.Output, Phase: phase, Priority: prio})
	}
	// Random order, then the first MaxCandidates distinct outputs.
	for i := len(ls.shuffle) - 1; i > 0; i-- {
		j := ls.cfg.RNG.Intn(i + 1)
		ls.shuffle[i], ls.shuffle[j] = ls.shuffle[j], ls.shuffle[i]
	}
	for _, c := range ls.shuffle {
		if len(dst)-base == ls.cfg.MaxCandidates {
			break
		}
		if ls.slotFor(c.Output, len(dst)-base) == len(dst)-base {
			dst = append(dst, c)
		}
	}
	for _, c := range dst[base:] {
		ls.slot[c.Output] = 0
	}
	return dst
}

// excessTally is a selection pass's account of the port's excess election:
// whether the pass met a routed VC, whether the elected VC is among the
// eligible excess VCs, and the eligible excess VC of highest static
// priority — the lowest index of equals — that succeeds it if not.
type excessTally struct {
	routed, kept   bool
	heir, heirPrio int
}

// note tallies eligible excess VC vc, of static priority prio, given the
// port's elected VC.
func (e *excessTally) note(vc, prio, elected int) {
	e.kept = e.kept || vc == elected
	if e.heir < 0 || prio > e.heirPrio {
		e.heir, e.heirPrio = vc, prio
	}
}

// growSlots widens the slot table to hold output out and returns it.
func (ls *LinkScheduler) growSlots(out int) []int32 {
	ls.slot = append(ls.slot, make([]int32, out+1-len(ls.slot))...)
	return ls.slot
}

// slotFor returns the position, among the candidates appended this cycle,
// of output out's entry. An output without one is assigned position next —
// where the caller is about to append — so a return of next means "new".
func (ls *LinkScheduler) slotFor(out, next int) int {
	if out >= len(ls.slot) {
		ls.growSlots(out)
	}
	if s := ls.slot[out]; s != 0 {
		return int(s) - 1
	}
	ls.slot[out] = int32(next) + 1
	return next
}

// State returns the scheduler's cross-cycle state, for a checkpoint walk
// to read or overwrite in place: the elected excess VC and the cumulative
// counters. Everything else it uses (LinkScratch) is recomputed each cycle.
func (ls *LinkScheduler) State() (excessVC *int, c *LinkCounters) { return &ls.excessVC, &ls.counters }

// sortPicks orders picks best-first. Insertion sort: the only caller passes
// the per-output winners, at most one per output port.
func sortPicks(ps []pick) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].before(&ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}
