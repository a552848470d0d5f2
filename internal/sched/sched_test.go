package sched

import (
	"reflect"
	"testing"
	"testing/quick"

	"mmr/internal/flit"
	"mmr/internal/flow"
	"mmr/internal/sim"
	"mmr/internal/vcm"
)

func TestBetterOrdering(t *testing.T) {
	ctl := Candidate{Phase: PhaseControl, Priority: 0}
	hi := Candidate{Phase: PhaseGuaranteed, Priority: 9}
	lo := Candidate{Phase: PhaseGuaranteed, Priority: 1}
	be := Candidate{Phase: PhaseBestEffort, Priority: 100}
	if !better(&ctl, &hi) || !better(&hi, &lo) || !better(&lo, &be) {
		t.Fatal("phase/priority ordering wrong")
	}
	// Deterministic tie-break by input then VC.
	a := Candidate{Phase: PhaseGuaranteed, Priority: 5, Input: 0, VC: 3}
	b := Candidate{Phase: PhaseGuaranteed, Priority: 5, Input: 1, VC: 0}
	c := Candidate{Phase: PhaseGuaranteed, Priority: 5, Input: 0, VC: 4}
	if !better(&a, &b) || !better(&a, &c) {
		t.Fatal("tie-break wrong")
	}
}

// TestSortCandidates: the link scheduler's sort orders the per-output
// winners — one input, distinct outputs and VCs — by phase, then priority,
// then VC, as better and the test helper sortCandidates do.
func TestSortCandidates(t *testing.T) {
	cs := []Candidate{
		{VC: 9, Output: 0, Phase: PhaseBestEffort, Priority: 50},
		{VC: 5, Output: 1, Phase: PhaseGuaranteed, Priority: 1},
		{VC: 7, Output: 2, Phase: PhaseControl},
		{VC: 4, Output: 3, Phase: PhaseGuaranteed, Priority: 7},
		{VC: 2, Output: 4, Phase: PhaseGuaranteed, Priority: 1},
	}
	ps := make([]pick, len(cs))
	for i, c := range cs {
		ps[i] = pick{prio: c.Priority, vc: int32(c.VC), out: int32(c.Output), phase: c.Phase}
	}
	sortPicks(ps)
	sortCandidates(cs)
	var order, picked []int
	for i := range cs {
		order, picked = append(order, cs[i].VC), append(picked, int(ps[i].vc))
	}
	want := []int{7, 4, 2, 5, 9}
	if !reflect.DeepEqual(picked, want) {
		t.Fatalf("sortPicks: VC order %v, want %v", picked, want)
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("sortCandidates: VC order %v, want %v", order, want)
	}
}

// sortCandidates orders candidates best-first by better, as a link
// scheduler hands them over.
func sortCandidates(cs []Candidate) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && better(&cs[j], &cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// headOf returns the record of a VC reserved with st whose head flit
// entered the memory at readyAt — what a PriorityScheme reads.
func headOf(st vcm.VCState, readyAt int64) *vcm.VCState {
	mem := vcm.MustNew(vcm.Config{VirtualChannels: 1, Depth: 1})
	mem.Reserve(0, st)
	mem.Push(0, &flit.Flit{ReadyAt: readyAt})
	return mem.State(0)
}

func TestBiasedPriorityGrowth(t *testing.T) {
	var b Biased
	st := headOf(vcm.VCState{InterArrival: 10}, 100)
	p1 := b.Priority(110, st) // waited 10 = 1 inter-arrival
	p2 := b.Priority(150, st) // waited 50 = 5 inter-arrivals
	if p1 != 1 || p2 != 5 {
		t.Fatalf("biased priorities = %v, %v; want 1, 5", p1, p2)
	}
	// Faster connection (smaller inter-arrival) grows faster.
	fast := headOf(vcm.VCState{InterArrival: 2}, 100)
	if b.Priority(110, fast) <= p1 {
		t.Fatal("fast connection should outgrow slow one")
	}
	// Negative wait clamps to zero (flit ready in the future).
	if p := b.Priority(90, st); p != 0 {
		t.Fatalf("future-ready flit priority = %v, want 0", p)
	}
	// Packet VCs (no inter-arrival) age in raw cycles.
	pkt := headOf(vcm.VCState{}, 100)
	if p := b.Priority(105, pkt); p != 5 {
		t.Fatalf("packet aging = %v, want 5", p)
	}
}

func TestFixedPriorityStatic(t *testing.T) {
	var f Fixed
	st := headOf(vcm.VCState{BasePriority: 3, InterArrival: 10}, 0)
	if f.Priority(0, st) != 3 || f.Priority(1_000_000, st) != 3 {
		t.Fatal("fixed priority must not depend on waiting time")
	}
}

func TestOldestFirstPriority(t *testing.T) {
	var o OldestFirst
	st := headOf(vcm.VCState{InterArrival: 1000}, 40)
	if p := o.Priority(100, st); p != 60 {
		t.Fatalf("oldest-first = %v, want 60", p)
	}
}

// newPort builds a small VCM + credits + scheduler for link tests.
func newPort(t *testing.T, maxCand int, scheme PriorityScheme) (*LinkScheduler, *vcm.Memory, *flow.Credits) {
	t.Helper()
	mem := vcm.MustNew(vcm.Config{VirtualChannels: 8, Depth: 2})
	cr := flow.NewCredits(8, 2)
	ls := NewLinkScheduler(LinkConfig{Input: 0, MaxCandidates: maxCand, Scheme: scheme}, mem, cr)
	return ls, mem, cr
}

// addStream reserves VC vc as a CBR stream to output out and buffers one
// flit that became ready at the given cycle.
func addStream(mem *vcm.Memory, vc, out int, conn flit.ConnID, ready int64) {
	mem.Reserve(vc, vcm.VCState{
		Conn: conn, Class: flit.ClassCBR, Allocated: 100, InterArrival: 10, Output: out,
	})
	mem.Push(vc, &flit.Flit{Conn: conn, Class: flit.ClassCBR, ReadyAt: ready})
}

func TestLinkSchedulerBasicCandidates(t *testing.T) {
	ls, mem, _ := newPort(t, 4, Biased{})
	addStream(mem, 1, 3, 10, 0)
	addStream(mem, 5, 2, 11, 0)
	cands := ls.Candidates(50, nil)
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2", len(cands))
	}
	for _, c := range cands {
		if c.Input != 0 || c.Phase != PhaseGuaranteed {
			t.Fatalf("candidate wrong: %+v", c)
		}
		if (c.VC == 1 && c.Output != 3) || (c.VC == 5 && c.Output != 2) {
			t.Fatalf("mapping wrong: %+v", c)
		}
	}
}

func TestLinkSchedulerRespectsMaxCandidates(t *testing.T) {
	ls, mem, _ := newPort(t, 2, Biased{})
	for vc := 0; vc < 6; vc++ {
		addStream(mem, vc, vc, flit.ConnID(vc), int64(10*vc))
	}
	cands := ls.Candidates(100, nil)
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2", len(cands))
	}
	// Best-first: the two oldest (smallest ReadyAt) flits win under biased.
	if cands[0].VC != 0 || cands[1].VC != 1 {
		t.Fatalf("wrong candidates selected: %+v", cands)
	}
}

func TestLinkSchedulerNeedsCredits(t *testing.T) {
	ls, mem, cr := newPort(t, 4, Biased{})
	addStream(mem, 2, 1, 7, 0)
	cr.Consume(2)
	cr.Consume(2) // exhaust VC 2's credits
	if cands := ls.Candidates(10, nil); len(cands) != 0 {
		t.Fatalf("candidate offered without credits: %+v", cands)
	}
	cr.Return(2)
	if cands := ls.Candidates(10, nil); len(cands) != 1 {
		t.Fatal("candidate missing after credit return")
	}
}

func TestLinkSchedulerSkipsUnroutedVCs(t *testing.T) {
	ls, mem, _ := newPort(t, 4, Biased{})
	mem.Reserve(0, vcm.VCState{Class: flit.ClassCBR, Allocated: 10, Output: -1})
	mem.Push(0, &flit.Flit{})
	if cands := ls.Candidates(5, nil); len(cands) != 0 {
		t.Fatal("unrouted VC offered as candidate")
	}
}

func TestLinkSchedulerRoundEnforcement(t *testing.T) {
	ls, mem, _ := newPort(t, 4, Biased{})
	mem.Reserve(1, vcm.VCState{Class: flit.ClassCBR, Allocated: 2, InterArrival: 5, Output: 0})
	mem.Push(1, &flit.Flit{})
	mem.SetServiced(1, 2) // allocation consumed this round
	if cands := ls.Candidates(10, nil); len(cands) != 0 {
		t.Fatal("over-allocation VC still scheduled")
	}
	ls.OnRoundBoundary()
	if cands := ls.Candidates(10, nil); len(cands) != 1 {
		t.Fatal("VC not eligible after round reset")
	}
}

func TestLinkSchedulerPhases(t *testing.T) {
	ls, mem, _ := newPort(t, 8, Biased{})
	// Best-effort packet VC.
	mem.Reserve(0, vcm.VCState{Class: flit.ClassBestEffort, Output: 1})
	mem.Push(0, &flit.Flit{Class: flit.ClassBestEffort, ReadyAt: 0})
	// CBR stream.
	addStream(mem, 1, 2, 5, 90)
	// Buffered control packet.
	mem.Reserve(2, vcm.VCState{Class: flit.ClassControl, Output: 3})
	mem.Push(2, &flit.Flit{Class: flit.ClassControl, ReadyAt: 99})
	cands := ls.Candidates(100, nil)
	if len(cands) != 3 {
		t.Fatalf("got %d candidates, want 3", len(cands))
	}
	if cands[0].Phase != PhaseControl || cands[1].Phase != PhaseGuaranteed || cands[2].Phase != PhaseBestEffort {
		t.Fatalf("phase order wrong: %+v", cands)
	}
}

func TestLinkSchedulerVBRPhases(t *testing.T) {
	ls, mem, _ := newPort(t, 8, Biased{})
	// VBR VC within permanent allocation.
	mem.Reserve(0, vcm.VCState{Class: flit.ClassVBR, Allocated: 2, Peak: 5, InterArrival: 10, Output: 0})
	mem.Push(0, &flit.Flit{})
	cands := ls.Candidates(10, nil)
	if len(cands) != 1 || cands[0].Phase != PhaseGuaranteed {
		t.Fatalf("VBR within permanent: %+v", cands)
	}
	// Consume permanent: moves to excess phase.
	mem.SetServiced(0, 2)
	cands = ls.Candidates(11, nil)
	if len(cands) != 1 || cands[0].Phase != PhaseExcess {
		t.Fatalf("VBR excess: %+v", cands)
	}
	// Consume peak: ineligible.
	mem.SetServiced(0, 5)
	if cands = ls.Candidates(12, nil); len(cands) != 0 {
		t.Fatalf("VBR beyond peak still scheduled: %+v", cands)
	}
}

func TestLinkSchedulerExcessOneAtATime(t *testing.T) {
	ls, mem, _ := newPort(t, 8, Biased{})
	for vc := 0; vc < 3; vc++ {
		mem.Reserve(vc, vcm.VCState{
			Class: flit.ClassVBR, Allocated: 0, Peak: 10, InterArrival: 10,
			Output: vc, BasePriority: vc, // VC 2 has the highest static priority
		})
		mem.Push(vc, &flit.Flit{})
	}
	// First call sees excess VCs but none elected yet; election happens
	// for the next cycle.
	ls.Candidates(10, nil)
	if ls.excessVC != 2 {
		t.Fatalf("elected excess VC %d, want 2 (highest priority)", ls.excessVC)
	}
	cands := ls.Candidates(11, nil)
	if len(cands) != 1 || cands[0].VC != 2 {
		t.Fatalf("excess candidates = %+v, want only VC 2", cands)
	}
	// Drain VC 2 to its peak; the next election must pick VC 1.
	mem.SetServiced(2, 10)
	ls.Candidates(12, nil)
	if ls.excessVC != 1 {
		t.Fatalf("re-election chose %d, want 1", ls.excessVC)
	}
}

// TestLinkSchedulerUnroutedPortKeepsElection: an unrouted packet requests
// no output, so a call whose only eligible VC is one is a no-op — no
// candidate, no counter, and the excess election left as it stands. VC 2
// is elected, then its last flit leaves, so it is not merely spent (a spent
// routed VC is still met by the pass) but out of the eligible set.
func TestLinkSchedulerUnroutedPortKeepsElection(t *testing.T) {
	for _, sel := range []Selection{SelectPriority, SelectRandom} {
		mem := vcm.MustNew(vcm.Config{VirtualChannels: 8, Depth: 2})
		ls := NewLinkScheduler(LinkConfig{Input: 0, MaxCandidates: 8, Selection: sel, RNG: sim.NewRNG(3)}, mem, flow.NewCredits(8, 2))
		mem.Reserve(2, vcm.VCState{Class: flit.ClassVBR, Peak: 10, InterArrival: 10, Output: 1, BasePriority: 2})
		mem.Push(2, &flit.Flit{})
		mem.Reserve(5, vcm.VCState{Class: flit.ClassBestEffort, Output: -1})
		mem.Push(5, &flit.Flit{Class: flit.ClassBestEffort})
		ls.Candidates(10, nil)
		if ls.excessVC != 2 {
			t.Fatalf("selection %d: elected excess VC %d, want 2", sel, ls.excessVC)
		}
		mem.Pop(2)
		before := ls.Counters()
		if cands := ls.Candidates(11, nil); len(cands) != 0 {
			t.Fatalf("selection %d: a port of one unrouted packet nominated %+v", sel, cands)
		}
		if ls.excessVC != 2 || ls.Counters() != before {
			t.Fatalf("selection %d: the unrouted packet moved the election to %d or the counters from %+v to %+v",
				sel, ls.excessVC, before, ls.Counters())
		}
	}
}

func TestLinkSchedulerRandomSelection(t *testing.T) {
	rng := sim.NewRNG(5)
	mem := vcm.MustNew(vcm.Config{VirtualChannels: 8, Depth: 2})
	cr := flow.NewCredits(8, 2)
	ls := NewLinkScheduler(LinkConfig{Input: 0, MaxCandidates: 1, Selection: SelectRandom, RNG: rng}, mem, cr)
	for vc := 0; vc < 8; vc++ {
		addStream(mem, vc, vc, flit.ConnID(vc), 0)
	}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		cands := ls.Candidates(10, nil)
		if len(cands) != 1 {
			t.Fatalf("want 1 candidate, got %d", len(cands))
		}
		seen[cands[0].VC] = true
	}
	if len(seen) < 4 {
		t.Fatalf("random selection hit only %d distinct VCs", len(seen))
	}
}

func TestLinkSchedulerDefaults(t *testing.T) {
	mem := vcm.MustNew(vcm.Config{VirtualChannels: 2, Depth: 1})
	cr := flow.NewCredits(2, 1)
	ls := NewLinkScheduler(LinkConfig{}, mem, cr)
	if ls.cfg.MaxCandidates != 1 || ls.cfg.Scheme == nil {
		t.Fatal("defaults not applied")
	}
}

func TestPriorityArbiterConflictResolution(t *testing.T) {
	a := newPriorityArbiterNoAugment(0)
	// Inputs 0 and 1 both want output 0; input 0 has higher priority but
	// also a fallback to output 1.
	cands := [][]Candidate{
		{{Input: 0, VC: 0, Output: 0, Phase: PhaseGuaranteed, Priority: 9},
			{Input: 0, VC: 1, Output: 1, Phase: PhaseGuaranteed, Priority: 5}},
		{{Input: 1, VC: 0, Output: 0, Phase: PhaseGuaranteed, Priority: 3}},
	}
	grants := make([]int, 2)
	a.Schedule(cands, grants)
	// Without augmentation, input 0 wins output 0 with its best candidate
	// and input 1 loses (maximal matching honoring priorities).
	if grants[0] != 0 || grants[1] != NoGrant {
		t.Fatalf("no-augment grants = %v", grants)
	}
	// With augmentation the matching grows to maximum: input 0 is
	// re-routed to its fallback so input 1's flit can use output 0 —
	// every output link transmits (§4.4's utilization goal).
	full := NewPriorityArbiter(0)
	full.Schedule(cands, grants)
	if grants[0] != 1 || grants[1] != 0 {
		t.Fatalf("augmented grants = %v", grants)
	}
}

func TestPriorityArbiterIterativeFill(t *testing.T) {
	a := NewPriorityArbiter(0)
	// Input 0 wants output 0 (strongly) or 1; input 1 wants only output 0.
	// After input 0 takes output 0... input 1 is stuck. But if input 0's
	// priorities invert, iteration lets input 1 take output 0 and input 0
	// fall back to output 1 — both transmit.
	cands := [][]Candidate{
		{{Input: 0, VC: 0, Output: 1, Phase: PhaseGuaranteed, Priority: 9},
			{Input: 0, VC: 1, Output: 0, Phase: PhaseGuaranteed, Priority: 5}},
		{{Input: 1, VC: 0, Output: 0, Phase: PhaseGuaranteed, Priority: 3}},
	}
	grants := make([]int, 2)
	a.Schedule(cands, grants)
	if grants[0] != 0 || grants[1] != 0 {
		t.Fatalf("grants = %v; want both inputs matched", grants)
	}
}

func TestPriorityArbiterPhasePrecedence(t *testing.T) {
	a := NewPriorityArbiter(0)
	cands := [][]Candidate{
		{{Input: 0, VC: 0, Output: 0, Phase: PhaseBestEffort, Priority: 1e9}},
		{{Input: 1, VC: 0, Output: 0, Phase: PhaseControl, Priority: 0}},
	}
	grants := make([]int, 2)
	a.Schedule(cands, grants)
	if grants[1] != 0 || grants[0] != NoGrant {
		t.Fatalf("control packet lost to best-effort: %v", grants)
	}
}

func TestPriorityArbiterEmptyAndShortInputs(t *testing.T) {
	a := NewPriorityArbiter(2)
	grants := make([]int, 3)
	a.Schedule([][]Candidate{{}, nil}, grants) // fewer cands rows than ports
	for _, g := range grants {
		if g != NoGrant {
			t.Fatalf("grants = %v", grants)
		}
	}
}

func TestPIMArbiterValidMatching(t *testing.T) {
	rng := sim.NewRNG(3)
	a := NewPIMArbiter(rng, 3)
	cands := [][]Candidate{
		{{Input: 0, VC: 0, Output: 0}, {Input: 0, VC: 1, Output: 1}},
		{{Input: 1, VC: 0, Output: 0}},
		{{Input: 2, VC: 0, Output: 1}, {Input: 2, VC: 1, Output: 2}},
	}
	grants := make([]int, 3)
	counts := map[int]int{}
	for trial := 0; trial < 100; trial++ {
		a.Schedule(cands, grants)
		used := map[int]bool{}
		matched := 0
		for in, g := range grants {
			if g == NoGrant {
				continue
			}
			matched++
			out := cands[in][g].Output
			if used[out] {
				t.Fatalf("output %d double-granted: %v", out, grants)
			}
			used[out] = true
		}
		counts[matched]++
		if matched < 2 {
			t.Fatalf("PIM matched only %d with an obvious 3-matching available", matched)
		}
	}
	if counts[3] == 0 {
		t.Fatal("PIM never found the maximal matching in 100 trials")
	}
}

func TestPIMArbiterRandomizesWinners(t *testing.T) {
	rng := sim.NewRNG(9)
	a := NewPIMArbiter(rng, 1)
	cands := [][]Candidate{
		{{Input: 0, VC: 0, Output: 0}},
		{{Input: 1, VC: 0, Output: 0}},
	}
	grants := make([]int, 2)
	wins := [2]int{}
	for i := 0; i < 400; i++ {
		a.Schedule(cands, grants)
		for in, g := range grants {
			if g != NoGrant {
				wins[in]++
			}
		}
	}
	if wins[0] < 120 || wins[1] < 120 {
		t.Fatalf("PIM arbitration biased: %v", wins)
	}
}

func TestPerfectSwitchGrantsAll(t *testing.T) {
	var p PerfectSwitch
	if !p.OutputSharing() {
		t.Fatal("perfect switch must share outputs")
	}
	cands := [][]Candidate{
		{{Input: 0, Output: 0}},
		{{Input: 1, Output: 0}}, // same output — fine for perfect
		{},
	}
	grants := make([]int, 3)
	p.Schedule(cands, grants)
	if grants[0] != 0 || grants[1] != 0 || grants[2] != NoGrant {
		t.Fatalf("grants = %v", grants)
	}
}

func TestArbiterNames(t *testing.T) {
	if NewPriorityArbiter(0).Name() != "priority" {
		t.Fatal("priority name")
	}
	if NewPriorityArbiter(2).Name() != "priority/2-iter" {
		t.Fatal("priority iter name")
	}
	if NewPIMArbiter(sim.NewRNG(1), 3).Name() != "autonet/3-iter" {
		t.Fatal("autonet name")
	}
	if (PerfectSwitch{}).Name() != "perfect" {
		t.Fatal("perfect name")
	}
	if (Biased{}).Name() != "biased" || (Fixed{}).Name() != "fixed" || (OldestFirst{}).Name() != "oldest-first" {
		t.Fatal("scheme names")
	}
}

// Property: for random candidate sets, every arbiter produces a valid
// matching — grant indices in range, and (except the perfect switch) no
// output claimed twice and each matched candidate's output in range.
func TestArbiterValidityProperty(t *testing.T) {
	rng := sim.NewRNG(77)
	arbiters := []SwitchScheduler{
		NewPriorityArbiter(0),
		NewPriorityArbiter(1),
		NewPIMArbiter(rng, 2),
		PerfectSwitch{},
	}
	f := func(seed uint64, nPorts8 uint8, raw []uint16) bool {
		rng.Seed(seed)
		n := int(nPorts8)%6 + 2
		cands := make([][]Candidate, n)
		for _, r := range raw {
			in := int(r) % n
			cands[in] = append(cands[in], Candidate{
				Input:    in,
				VC:       len(cands[in]),
				Output:   int(r>>4) % n,
				Phase:    Phase(int(r>>8) % 4),
				Priority: float64(r >> 10),
			})
		}
		for _, c := range cands {
			sortCandidates(c)
		}
		grants := make([]int, n)
		for _, a := range arbiters {
			a.Schedule(cands, grants)
			used := map[int]bool{}
			for in, g := range grants {
				if g == NoGrant {
					continue
				}
				if g < 0 || g >= len(cands[in]) {
					return false
				}
				out := cands[in][g].Output
				if out < 0 || out >= n {
					return false
				}
				if !a.OutputSharing() {
					if used[out] {
						return false
					}
					used[out] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
