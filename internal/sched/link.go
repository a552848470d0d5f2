package sched

import (
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
	// slot table of a scheduler built with NewLinkScheduler. Zero is
	// allowed (the table grows on first use) but costs one allocation per
	// new high-water output index.
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
	// slot[o] is 1 + the position, among the candidates appended this
	// cycle, of output o's entry, or 0 while o has none. It is all zeros
	// between calls.
	slot    []int32
	shuffle []Candidate // SelectRandom only: the set Fisher–Yates permutes
	work    *Work
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

// Config returns the scheduler's configuration.
func (ls *LinkScheduler) Config() LinkConfig { return ls.cfg }

// OnRoundBoundary resets per-round bandwidth accounting (§4.1: flit cycles
// are grouped into rounds; allocations are per round).
func (ls *LinkScheduler) OnRoundBoundary() {
	ls.mem.ResetRound()
	ls.excessVC = -1
}

// classify returns the service phase of VC vc (whose state is st) right
// now; ok is false if the VC has exhausted its bandwidth for this round.
func (ls *LinkScheduler) classify(vc int, st *vcm.VCState) (phase Phase, ok bool) {
	switch st.Class {
	case flit.ClassControl:
		return PhaseControl, true
	case flit.ClassCBR:
		if ls.mem.Serviced(vc) < st.Allocated {
			return PhaseGuaranteed, true
		}
		return 0, false
	case flit.ClassVBR:
		serviced := ls.mem.Serviced(vc)
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
// CreditStalled, the return before the excess election, no RNG draw — which
// is what lets a gating engine skip the port. dst is also the
// working set of the selection, so it holds up to one entry per distinct
// output before the cut: a caller that wants no allocation passes a slice
// with that much room.
//
// An input transmits at most one flit per cycle, so a second candidate for
// the same output can never improve the matching — spending candidate
// slots on distinct outputs is what makes more candidates raise switch
// utilization (§5.2), and the per-output winner is exactly what the
// output-side arbitration would pick anyway. The priority path therefore
// needs a maximum per output, not an order over the eligible VCs: one pass
// over the eligibility vector keeps each output's running best in dst
// (found through the slot table), and only those at most Outputs winners
// are ordered. Better is a strict total order over one input's VCs, so
// this yields the same candidates in the same order as sorting every
// eligible VC and keeping the first MaxCandidates distinct outputs.
func (ls *LinkScheduler) Candidates(now int64, dst []Candidate) []Candidate {
	flits := ls.mem.FlitsAvailable()
	ls.eligible.And(flits, ls.credits.Vector())
	// Buffered flits minus eligible flits is exactly the set with no
	// downstream credit — two popcounts, no extra pass.
	ls.counters.CreditStalled += int64(flits.Count() - ls.eligible.Count())
	if !ls.eligible.Any() {
		return dst
	}
	random := ls.cfg.Selection == SelectRandom
	// With one candidate the per-output bests collapse to the single best
	// overall: a plain running maximum in dst[base], no slot table.
	single := ls.cfg.MaxCandidates == 1
	base := len(dst)
	ls.shuffle = ls.shuffle[:0]
	excessSeen := false
	visited, evals := int64(0), int64(0)
	// Word-level scan of the eligibility vector (bits.TrailingZeros64 under
	// NextSet) instead of a per-bit callback: this loop runs for every
	// eligible VC on every port every cycle.
	for vc := ls.eligible.NextSet(0); vc >= 0; vc = ls.eligible.NextSet(vc + 1) {
		st := ls.mem.State(vc)
		visited++
		if st.Output < 0 {
			continue // unrouted VC (header still in the routing unit)
		}
		phase, ok := ls.classify(vc, st)
		if !ok {
			ls.counters.RoundExhausted++
			continue
		}
		if phase == PhaseExcess {
			excessSeen = true
			// §4.3: drain one connection's excess completely before the
			// next. While the current excess VC is still eligible, other
			// excess VCs stand aside.
			if ls.excessVC >= 0 && vc != ls.excessVC {
				continue
			}
		}
		prio := ls.cfg.Scheme.Priority(now, st)
		evals++
		if prio > float64(st.BasePriority) {
			ls.counters.BiasBoosted++
		}
		if random {
			ls.shuffle = append(ls.shuffle, Candidate{Input: ls.cfg.Input, VC: vc, Output: st.Output, Phase: phase, Priority: prio})
			continue
		}
		// at is where in dst the entry this VC competes with lives;
		// len(dst) if it is the first for its output (or the first at all).
		at := base
		if !single {
			at = ls.slotFor(st.Output, len(dst)-base) + base
		}
		if at == len(dst) {
			dst = append(dst, Candidate{Input: ls.cfg.Input, VC: vc, Output: st.Output, Phase: phase, Priority: prio})
		} else if cur := &dst[at]; phase < cur.Phase || (phase == cur.Phase && prio > cur.Priority) {
			// Better(this, cur) with the tie-break dropped: same input, and
			// VCs are scanned in increasing order, so a tie keeps cur.
			*cur = Candidate{Input: ls.cfg.Input, VC: vc, Output: st.Output, Phase: phase, Priority: prio}
		}
	}
	// If the current excess VC went ineligible, elect a successor: the
	// eligible excess VC with the highest static priority.
	if ls.excessVC >= 0 && !ls.stillExcessEligible(ls.excessVC) {
		ls.excessVC = -1
	}
	if ls.excessVC < 0 && excessSeen {
		ls.electExcess()
		// Re-collect is unnecessary: excess candidates excluded above can
		// wait one cycle; the elected VC enters the set next cycle. This
		// mirrors hardware, where election happens in parallel with the
		// current cycle's arbitration.
	}
	switch {
	case random:
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
		ls.clearSlots(dst[base:])
	case !single:
		ls.clearSlots(dst[base:])
		sortCandidates(dst[base:])
		if len(dst)-base > ls.cfg.MaxCandidates {
			dst = dst[:base+ls.cfg.MaxCandidates]
		}
	}
	ls.counters.Nominated += int64(len(dst) - base)
	ls.work.VCsVisited += visited
	ls.work.PriorityEvals += evals
	ls.work.Candidates += int64(len(dst) - base)
	return dst
}

// slotFor returns the position, among the candidates appended this cycle,
// of output out's entry. An output without one is assigned position next —
// where the caller is about to append — so a return of next means "new".
func (ls *LinkScheduler) slotFor(out, next int) int {
	if out >= len(ls.slot) {
		// Only a scheduler built with too small a LinkConfig.Outputs gets here.
		ls.slot = append(ls.slot, make([]int32, out+1-len(ls.slot))...)
	}
	if s := ls.slot[out]; s != 0 {
		return int(s) - 1
	}
	ls.slot[out] = int32(next) + 1
	return next
}

// clearSlots returns the slot table to all zeros, given the candidates that
// hold its nonzero entries.
func (ls *LinkScheduler) clearSlots(held []Candidate) {
	for i := range held {
		ls.slot[held[i].Output] = 0
	}
}

// stillExcessEligible reports whether vc remains an eligible excess-phase
// candidate.
func (ls *LinkScheduler) stillExcessEligible(vc int) bool {
	if !ls.eligible.Test(vc) {
		return false
	}
	phase, ok := ls.classify(vc, ls.mem.State(vc))
	return ok && phase == PhaseExcess
}

// electExcess picks the eligible excess VC with the highest static
// priority as the connection whose excess is served next (§4.3).
func (ls *LinkScheduler) electExcess() {
	best, bestPrio := -1, 0
	for vc := ls.eligible.NextSet(0); vc >= 0; vc = ls.eligible.NextSet(vc + 1) {
		st := ls.mem.State(vc)
		ls.work.VCsVisited++
		if phase, ok := ls.classify(vc, st); ok && phase == PhaseExcess {
			p := st.BasePriority
			if best < 0 || p > bestPrio {
				best, bestPrio = vc, p
			}
		}
	}
	ls.excessVC = best
}

// State returns the scheduler's cross-cycle state, for a checkpoint walk
// to read or overwrite in place: the elected excess VC and the cumulative
// counters. Everything else it uses (LinkScratch) is recomputed each cycle.
func (ls *LinkScheduler) State() (excessVC *int, c *LinkCounters) { return &ls.excessVC, &ls.counters }

// ExcessVC exposes the currently elected excess connection for tests.
func (ls *LinkScheduler) ExcessVC() int { return ls.excessVC }

// sortCandidates orders candidates best-first. Insertion sort: the only
// caller passes the per-output winners, at most one per output port.
func sortCandidates(cs []Candidate) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && Better(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
