package sched

import (
	"reflect"
	"sort"
	"testing"

	"mmr/internal/flit"
	"mmr/internal/flow"
	"mmr/internal/sim"
	"mmr/internal/vcm"
)

// referenceCandidates is the selection Candidates replaced, kept as the
// specification it is tested against: materialise every eligible VC as a
// Candidate, stable-sort all of them by better (or Fisher–Yates them for
// SelectRandom), then keep the first MaxCandidates distinct outputs. It
// drives ls's counters and excess election exactly as Candidates does, so
// a port run with it is a twin of a port run with Candidates. The election
// is the two steps Candidates folded into its pass — drop an elected VC
// that is no longer an eligible excess VC, then elect among the eligible
// excess VCs — taken only by a call that met a routed VC: unrouted VCs
// request no output and have no say in it.
func referenceCandidates(ls *LinkScheduler, now int64, dst []Candidate) []Candidate {
	flits := ls.mem.FlitsAvailable()
	ls.eligible.And(flits, ls.credits.Vector())
	ls.counters.CreditStalled += int64(flits.Count() - ls.eligible.Count())
	if !ls.eligible.Any() {
		return dst
	}
	var all []Candidate
	routed, excessSeen := false, false
	for vc := ls.eligible.NextSet(0); vc >= 0; vc = ls.eligible.NextSet(vc + 1) {
		st := ls.mem.State(vc)
		if st.Output < 0 {
			continue
		}
		routed = true
		phase, ok := classify(st, ls.mem.Round())
		if !ok {
			ls.counters.RoundExhausted++
			continue
		}
		if phase == PhaseExcess {
			excessSeen = true
			if ls.excessVC >= 0 && vc != ls.excessVC {
				continue
			}
		}
		if head := ls.mem.Peek(vc); st.HeadReadyAt() != head.ReadyAt {
			panic("sched: VC record's head stamp is not its head flit's")
		}
		prio := ls.cfg.Scheme.Priority(now, st)
		if prio > float64(st.BasePriority) {
			ls.counters.BiasBoosted++
		}
		all = append(all, Candidate{Input: ls.cfg.Input, VC: vc, Output: st.Output, Phase: phase, Priority: prio})
	}
	if routed && ls.excessVC >= 0 && !stillExcessEligible(ls, ls.excessVC) {
		ls.excessVC = -1
	}
	if routed && ls.excessVC < 0 && excessSeen {
		electExcess(ls)
	}
	if ls.cfg.Selection == SelectRandom {
		for i := len(all) - 1; i > 0; i-- {
			j := ls.cfg.RNG.Intn(i + 1)
			all[i], all[j] = all[j], all[i]
		}
	} else {
		sort.SliceStable(all, func(i, j int) bool { return better(&all[i], &all[j]) })
	}
	taken := map[int]bool{}
	n := 0
	for _, c := range all {
		if n == ls.cfg.MaxCandidates {
			break
		}
		if taken[c.Output] {
			continue
		}
		taken[c.Output] = true
		dst = append(dst, c)
		n++
	}
	ls.counters.Nominated += int64(n)
	return dst
}

// stillExcessEligible reports whether vc remains an eligible, routed
// excess-phase VC.
func stillExcessEligible(ls *LinkScheduler, vc int) bool {
	st := ls.mem.State(vc)
	if !ls.eligible.Test(vc) || st.Output < 0 {
		return false
	}
	phase, ok := classify(st, ls.mem.Round())
	return ok && phase == PhaseExcess
}

// electExcess elects the eligible, routed excess VC with the highest static
// priority as the connection whose excess is served next (§4.3).
func electExcess(ls *LinkScheduler) {
	best, bestPrio := -1, 0
	for vc := ls.eligible.NextSet(0); vc >= 0; vc = ls.eligible.NextSet(vc + 1) {
		st := ls.mem.State(vc)
		if st.Output < 0 {
			continue
		}
		if phase, ok := classify(st, ls.mem.Round()); ok && phase == PhaseExcess {
			if best < 0 || st.BasePriority > bestPrio {
				best, bestPrio = vc, st.BasePriority
			}
		}
	}
	ls.excessVC = best
}

// selectionCase is one randomized port population and scheduler shape.
type selectionCase struct {
	seed      uint64
	maxCand   int
	outputs   int // the population's output range; VCs map to [-1, outputs)
	tableSize int // LinkConfig.Outputs: 0 makes the slot table grow on use
	scheme    int // index into selectionSchemes
	random    bool
	sparse    bool // about one VC in eight reserved, half of them unrouted
}

// selectionSchemes are the priority schemes the twin test draws from:
// Biased, which Candidates prices inline, and every scheme it prices
// through the PriorityScheme interface — Biased among them, wrapped.
var selectionSchemes = []PriorityScheme{Biased{}, Fixed{}, OldestFirst{}, viaInterface{}}

// viaInterface is Biased under another type, so a scheduler cannot see it
// is Biased and prices it through the interface.
type viaInterface struct{ Biased }

const (
	selVCs    = 64
	selDepth  = 2
	selRound  = 24
	selCycles = 96
)

// checkSelection builds two identical ports from tc — a 64-VC memory with
// a random mix of control, CBR, VBR and best-effort VCs, a handful of base
// priorities and ready times so that equal priorities (the VC tie-break)
// are common, tight allocations so that rounds exhaust and VBR VCs enter
// and leave the excess phase, and credits that come and go — and steps
// them together: one nominates through Candidates, the other through
// referenceCandidates. Every cycle both must nominate the same candidates
// in the same order and hold the same counters and excess election; with
// SelectRandom the two RNG streams must also have advanced by the same
// number of draws. A sparse port is one whose eligible VCs are often all
// unrouted while an excess election stands.
func checkSelection(t *testing.T, tc selectionCase) {
	t.Helper()
	type port struct {
		ls  *LinkScheduler
		mem *vcm.Memory
		cr  *flow.Credits
		rng *sim.RNG
	}
	build := func() port {
		mem := vcm.MustNew(vcm.Config{VirtualChannels: selVCs, Depth: selDepth})
		cr := flow.NewCredits(selVCs, selDepth)
		cfg := LinkConfig{Input: 3, MaxCandidates: tc.maxCand, Outputs: tc.tableSize, Scheme: selectionSchemes[tc.scheme], RNG: sim.NewRNG(tc.seed ^ 0x9e3779b97f4a7c15)}
		if tc.random {
			cfg.Selection = SelectRandom
		}
		return port{NewLinkScheduler(cfg, mem, cr), mem, cr, cfg.RNG}
	}
	got, want := build(), build()
	ports := []port{got, want}

	// The script RNG decides the population and everything that happens
	// to it; both ports receive identical operations.
	script := sim.NewRNG(tc.seed)
	for vc := 0; vc < selVCs; vc++ {
		if script.Intn(4) == 0 || tc.sparse && script.Intn(6) != 0 {
			continue // unreserved
		}
		st := vcm.VCState{
			Conn:         flit.ConnID(vc),
			Class:        flit.Class(script.Intn(flit.NumClasses)),
			Allocated:    script.Intn(3),
			BasePriority: script.Intn(3),
			InterArrival: float64(5 * script.Intn(3)), // 0 ages in raw cycles
			Output:       script.Intn(tc.outputs+1) - 1,
		}
		st.Peak = st.Allocated + script.Intn(3)
		if tc.sparse && script.Intn(2) == 0 {
			st.Output = -1
		}
		for _, p := range ports {
			p.mem.Reserve(vc, st)
		}
	}
	var gotC, wantC []Candidate
	for now := int64(0); now < selCycles; now++ {
		if now%selRound == 0 {
			got.ls.OnRoundBoundary()
			want.ls.OnRoundBoundary()
		}
		// Arrivals (ready times a multiple of 4, so waits collide) and
		// credit churn.
		for k := script.Intn(12); k > 0; k-- {
			vc := script.Intn(selVCs)
			if !got.mem.State(vc).InUse {
				continue
			}
			ready := now &^ 3
			for _, p := range ports {
				p.mem.Push(vc, &flit.Flit{Conn: flit.ConnID(vc), Class: p.mem.State(vc).Class, ReadyAt: ready})
			}
		}
		for k := script.Intn(4); k > 0; k-- {
			vc := script.Intn(selVCs)
			give := script.Intn(2) == 0
			for _, p := range ports {
				if give && p.cr.Available(vc) < selDepth {
					p.cr.Return(vc)
				} else if !give {
					p.cr.Consume(vc)
				}
			}
		}

		gotC = got.ls.Candidates(now, gotC[:0])
		wantC = referenceCandidates(want.ls, now, wantC[:0])
		if len(gotC) != len(wantC) || (len(gotC) > 0 && !reflect.DeepEqual(gotC, wantC)) {
			t.Fatalf("%+v cycle %d: candidates differ\n got: %+v\nwant: %+v", tc, now, gotC, wantC)
		}
		if g, w := got.ls.Counters(), want.ls.Counters(); g != w {
			t.Fatalf("%+v cycle %d: counters differ\n got: %+v\nwant: %+v", tc, now, g, w)
		}
		if g, w := got.ls.excessVC, want.ls.excessVC; g != w {
			t.Fatalf("%+v cycle %d: excess election differs: got VC %d, want VC %d", tc, now, g, w)
		}
		if got.rng.State() != want.rng.State() {
			t.Fatalf("%+v cycle %d: Candidates and the reference drew a different number of random values", tc, now)
		}
		for i := range got.ls.slot {
			if got.ls.slot[i] != 0 {
				t.Fatalf("%+v cycle %d: slot table entry %d left set after Candidates", tc, now, i)
			}
		}
		// Serve one nominee, as a switch that granted this input would.
		if len(gotC) > 0 {
			c := gotC[script.Intn(len(gotC))]
			for _, p := range ports {
				p.mem.Pop(c.VC)
				p.mem.IncServiced(c.VC)
			}
		}
	}
}

// selectionCaseFrom maps fuzz inputs onto a valid case: flags bits 0 and 3
// pick the scheme (Biased, Fixed, OldestFirst, Biased through the
// interface), bit 1 random selection, bit 2 a slot table grown from empty,
// bit 4 a sparse port.
func selectionCaseFrom(seed uint64, maxCand, outputs, flags uint8) selectionCase {
	tc := selectionCase{
		seed:    seed,
		outputs: int(outputs)%16 + 1,
		scheme:  int(flags&1 | flags>>2&2),
		random:  flags&2 != 0,
		sparse:  flags&16 != 0,
	}
	tc.maxCand = int(maxCand)%tc.outputs + 1
	if flags&4 == 0 {
		tc.tableSize = tc.outputs
	}
	return tc
}

// TestCandidatesMatchesSortedReference sweeps the one-pass selection
// against the sorted reference: every MaxCandidates from 1 to the output
// count, both selection policies, every scheme — Biased priced inline and
// through the interface, fixed (tie-heavy) and oldest-first priorities —
// a slot table that starts empty and a sparse port.
func TestCandidatesMatchesSortedReference(t *testing.T) {
	const outputs = 8
	for seed := uint64(1); seed <= 6; seed++ {
		for maxCand := 1; maxCand <= outputs; maxCand++ {
			for flags := uint8(0); flags < 32; flags++ {
				// The fuzz mapping is n%range + 1, hence the -1s.
				checkSelection(t, selectionCaseFrom(seed, uint8(maxCand-1), outputs-1, flags))
			}
		}
	}
}

// FuzzCandidatesMatchesSortedReference lets the fuzzer pick the
// population seed and the scheduler shape.
func FuzzCandidatesMatchesSortedReference(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(7), uint8(0))  // 1C biased, the paper's 8 outputs
	f.Add(uint64(2), uint8(7), uint8(7), uint8(1))  // 8C fixed: ties everywhere
	f.Add(uint64(3), uint8(3), uint8(7), uint8(2))  // random selection
	f.Add(uint64(4), uint8(1), uint8(15), uint8(4)) // slot table grows from empty
	f.Add(uint64(5), uint8(2), uint8(0), uint8(0))  // one output
	f.Add(uint64(3), uint8(0), uint8(7), uint8(16)) // sparse: calls of unrouted VCs alone under an election
	// One seed per scheme, so the inline and the interface paths both stay
	// equal to the reference.
	f.Add(uint64(6), uint8(3), uint8(7), uint8(0)) // Biased, priced inline
	f.Add(uint64(7), uint8(3), uint8(7), uint8(1)) // Fixed
	f.Add(uint64(8), uint8(3), uint8(7), uint8(8)) // OldestFirst
	f.Add(uint64(9), uint8(3), uint8(7), uint8(9)) // Biased through the interface
	f.Fuzz(func(t *testing.T, seed uint64, maxCand, outputs, flags uint8) {
		checkSelection(t, selectionCaseFrom(seed, maxCand, outputs, flags))
	})
}

// backlogPort builds a 256-VC port with the given number of eligible CBR
// VCs spread over 8 outputs, every one with a buffered flit and credit —
// with 48, the saturated port of the figures' 0.9 column in miniature.
func backlogPort(tb testing.TB, eligible, maxCand int) *LinkScheduler {
	tb.Helper()
	const vcs, outputs = 256, 8
	mem := vcm.MustNew(vcm.Config{VirtualChannels: vcs, Depth: 2})
	cr := flow.NewCredits(vcs, 2)
	ls := NewLinkScheduler(LinkConfig{Input: 0, MaxCandidates: maxCand, Outputs: outputs}, mem, cr)
	rng := sim.NewRNG(7)
	for i := 0; i < eligible; i++ {
		vc := i * vcs / eligible
		mem.Reserve(vc, vcm.VCState{
			Conn: flit.ConnID(vc), Class: flit.ClassCBR, Allocated: 100,
			InterArrival: float64(4 + rng.Intn(60)), Output: i % outputs,
		})
		mem.Push(vc, &flit.Flit{Conn: flit.ConnID(vc), Class: flit.ClassCBR, ReadyAt: int64(rng.Intn(200))})
	}
	return ls
}

// TestCandidatesZeroAlloc: selection works in the caller's slice and the
// scheduler's fixed tables; with room for one candidate per output it may
// not allocate, however many VCs are eligible.
func TestCandidatesZeroAlloc(t *testing.T) {
	for _, maxCand := range []int{1, 8} {
		ls := backlogPort(t, 64, maxCand)
		dst := make([]Candidate, 0, ls.cfg.Outputs)
		now := int64(1000)
		allocs := testing.AllocsPerRun(200, func() {
			dst = ls.Candidates(now, dst[:0])
			now++
		})
		if len(dst) != maxCand {
			t.Fatalf("MaxCandidates %d: nominated %d", maxCand, len(dst))
		}
		if allocs != 0 {
			t.Errorf("MaxCandidates %d: Candidates allocates %.2f times per call over 64 eligible VCs, want 0", maxCand, allocs)
		}
	}
}

// BenchmarkLinkCandidatesBacklog measures candidate selection on a
// backlogged port — 48 eligible VCs over 8 outputs — at the two ends of
// the paper's candidate sweep.
func BenchmarkLinkCandidatesBacklog(b *testing.B) { benchmarkCandidates(b, 48) }

// BenchmarkLinkCandidatesOneEligible measures the call a sparse fabric makes
// most: one eligible VC on the port.
func BenchmarkLinkCandidatesOneEligible(b *testing.B) { benchmarkCandidates(b, 1) }

func benchmarkCandidates(b *testing.B, eligible int) {
	for _, bc := range []struct {
		name    string
		maxCand int
	}{{"1C", 1}, {"8C", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			ls := backlogPort(b, eligible, bc.maxCand)
			dst := make([]Candidate, 0, ls.cfg.Outputs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = ls.Candidates(int64(1000+i), dst[:0])
			}
			if want := min(eligible, bc.maxCand); len(dst) != want {
				b.Fatalf("nominated %d, want %d", len(dst), want)
			}
		})
	}
}
