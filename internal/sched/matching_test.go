package sched

import (
	"fmt"
	"reflect"
	"testing"

	"mmr/internal/sim"
)

// A switch cycle is a bipartite request graph — input in asks for output
// c.Output of each of its candidates — and a scheduler's grants are its
// service matrix, which must be a sub-permutation (each input and each
// output in at most one pair). These properties hold every
// non-output-sharing arbiter to that, the augmenting PriorityArbiter to a
// maximum matching of the graph, and the iterative matchers run to
// convergence to a maximal one.

// matchingCase draws one request graph: 2–16 ports, 0–8 candidates per
// input (most inputs 1–8), outputs uniform over [-1, ports] so some are out
// of range, some repeats of an output the same input already asked for,
// and phases and priorities from small sets so ties are common.
// Candidates arrive best first, as a link scheduler hands them over.
func matchingCase(seed uint64, ports, maxCand uint8) [][]Candidate {
	rng := sim.NewRNG(seed)
	n := 2 + int(ports)%15
	m := 1 + int(maxCand)%8
	cands := make([][]Candidate, n)
	for in := range cands {
		k := 1 + rng.Intn(m)
		if rng.Intn(8) == 0 {
			k = 0
		}
		for vc := 0; vc < k; vc++ {
			out := rng.Intn(n+2) - 1
			if vc > 0 && rng.Intn(4) == 0 {
				out = cands[in][rng.Intn(vc)].Output
			}
			cands[in] = append(cands[in], Candidate{Input: in, VC: vc, Output: out,
				Phase: Phase(rng.Intn(3)), Priority: float64(rng.Intn(4))})
		}
		sortCandidates(cands[in])
	}
	return cands
}

// maxMatching is the size of a maximum matching of the request graph, by
// exhaustive search over each input's choices (skip it, or any in-range
// output still free), memoized on (input, outputs used).
func maxMatching(cands [][]Candidate, n int) int {
	memo := make([]int8, len(cands)<<n) // 1 + the answer, 0 while unknown
	var best func(in int, used int) int
	best = func(in int, used int) int {
		if in == len(cands) {
			return 0
		}
		if r := memo[in<<n|used]; r > 0 {
			return int(r) - 1
		}
		r := best(in+1, used)
		for _, c := range cands[in] {
			if o := c.Output; o >= 0 && o < n && used&(1<<o) == 0 {
				r = max(r, 1+best(in+1, used|1<<o))
			}
		}
		memo[in<<n|used] = int8(r + 1)
		return r
	}
	return best(0, 0)
}

// subPermutation returns why grants is not a sub-permutation of the
// request graph, or "".
func subPermutation(cands [][]Candidate, grants []int) string {
	taken := map[int]int{}
	for in, g := range grants {
		if g == NoGrant {
			continue
		}
		if g < 0 || g >= len(cands[in]) {
			return fmt.Sprintf("input %d granted candidate %d of %d", in, g, len(cands[in]))
		}
		o := cands[in][g].Output
		if o < 0 || o >= len(grants) {
			return fmt.Sprintf("input %d granted out-of-range output %d", in, o)
		}
		if prev, ok := taken[o]; ok {
			return fmt.Sprintf("output %d granted to inputs %d and %d", o, prev, in)
		}
		taken[o] = in
	}
	return ""
}

// unmatchedRequest returns a request whose input and output both went
// unmatched — proof the matching is not maximal — or "".
func unmatchedRequest(cands [][]Candidate, grants []int) string {
	taken := make([]bool, len(grants))
	for in, g := range grants {
		if g != NoGrant {
			taken[cands[in][g].Output] = true
		}
	}
	for in, g := range grants {
		if g != NoGrant {
			continue
		}
		for _, c := range cands[in] {
			if c.Output >= 0 && c.Output < len(grants) && !taken[c.Output] {
				return fmt.Sprintf("input %d and output %d both free", in, c.Output)
			}
		}
	}
	return ""
}

func matchedCount(grants []int) int {
	k := 0
	for _, g := range grants {
		if g != NoGrant {
			k++
		}
	}
	return k
}

// matchingArbiters are the arbiters one property run exercises. They are
// reused across runs and widths, so scratch a call leaves stale shows.
type matchingArbiters struct {
	augment, plain [4]*PriorityArbiter     // by iteration bound; 0 = to convergence
	pim, islip     map[int]SwitchScheduler // run to convergence, by width
	pim1, islip1   SwitchScheduler         // one iteration
	rng            *sim.RNG
}

func newMatchingArbiters() *matchingArbiters {
	rng := sim.NewRNG(1)
	a := &matchingArbiters{pim: map[int]SwitchScheduler{}, islip: map[int]SwitchScheduler{},
		pim1: NewPIMArbiter(rng, 1), islip1: NewISLIPArbiter(1), rng: rng}
	for it := range a.augment {
		a.augment[it], a.plain[it] = NewPriorityArbiter(it), newPriorityArbiterNoAugment(it)
	}
	return a
}

// converged returns the PIM and iSLIP arbiters run to convergence at width
// n: n iterations, since each one that changes anything adds a pair.
func (a *matchingArbiters) converged(n int) (pim, islip SwitchScheduler) {
	if a.pim[n] == nil {
		a.pim[n], a.islip[n] = NewPIMArbiter(a.rng, n), NewISLIPArbiter(n)
	}
	return a.pim[n], a.islip[n]
}

// checkMatching runs every property on one request graph.
func (a *matchingArbiters) checkMatching(t *testing.T, cands [][]Candidate) {
	t.Helper()
	n := len(cands)
	want := maxMatching(cands, n)
	pim, islip := a.converged(n)
	grants := make([]int, n)
	run := func(s SwitchScheduler) []int {
		for i := range grants {
			grants[i] = 12345 // Schedule must overwrite every entry
		}
		s.Schedule(cands, grants)
		if why := subPermutation(cands, grants); why != "" {
			t.Fatalf("%s: not a sub-permutation (%s): grants %v, candidates %+v", s.Name(), why, grants, cands)
		}
		return append([]int(nil), grants...)
	}
	for it := range a.augment {
		plain, full := run(a.plain[it]), run(a.augment[it])
		if got := matchedCount(full); got != want {
			t.Fatalf("%s: %d pairs, a maximum matching has %d: grants %v, candidates %+v", a.augment[it].Name(), got, want, full, cands)
		}
		for in, g := range plain {
			if g != NoGrant && full[in] == NoGrant {
				t.Fatalf("%s: augmentation unseated input %d: %v → %v, candidates %+v", a.augment[it].Name(), in, plain, full, cands)
			}
		}
	}
	run(a.pim1)
	run(a.islip1)
	for _, s := range []SwitchScheduler{a.plain[0], pim, islip} {
		if why := unmatchedRequest(cands, run(s)); why != "" {
			t.Fatalf("%s: not maximal (%s): grants %v, candidates %+v", s.Name(), why, grants, cands)
		}
	}
}

// TestArbiterMatchingProperties checks the matching properties over a
// spread of random request graphs at every width from 2 to 16 ports.
func TestArbiterMatchingProperties(t *testing.T) {
	a := newMatchingArbiters()
	for seed := uint64(0); seed < 1500; seed++ {
		a.checkMatching(t, matchingCase(seed, uint8(seed), uint8(seed/15)))
	}
}

// FuzzArbiterMatching lets the fuzzer pick the request graph.
func FuzzArbiterMatching(f *testing.F) {
	for _, s := range [][3]uint8{{1, 0, 0}, {2, 14, 7}, {3, 6, 3}, {4, 14, 0}} {
		f.Add(uint64(s[0]), s[1], s[2])
	}
	a := newMatchingArbiters()
	f.Fuzz(func(t *testing.T, seed uint64, ports, maxCand uint8) {
		a.checkMatching(t, matchingCase(seed, ports, maxCand))
	})
}

// referencePriority is PriorityArbiter.Schedule as it was before the
// candidates were compared in place: better on copies. It runs on a's
// scratch, so a twin arbiter of the one under test drives it.
func referencePriority(a *PriorityArbiter, cands [][]Candidate, grants []int) {
	n := len(grants)
	a.grow(n)
	free := a.ins[:0]
	for in := range grants {
		grants[in] = NoGrant
		if in < len(cands) && len(cands[in]) > 0 {
			free = append(free, in)
		}
	}
	outs := a.outs[:0]
	maxIter := a.iterations
	if maxIter <= 0 {
		maxIter = n
	}
	for iter := 0; iter < maxIter && len(free) > 0; iter++ {
		for _, o := range outs {
			a.grantIn[o] = -1
		}
		for _, in := range free {
			for ci, c := range cands[in] {
				o := c.Output
				if o < 0 || o >= n {
					continue
				}
				if !a.seen[o] {
					a.seen[o], a.matchIn[o], a.grantIn[o] = true, -1, -1
					outs = append(outs, o)
				}
				if a.matchIn[o] >= 0 {
					continue
				}
				if g := a.grantIn[o]; g < 0 || betterCopy(c, cands[g][a.grantIdx[o]]) {
					a.grantIn[o], a.grantIdx[o] = in, ci
				}
			}
		}
		for _, o := range outs {
			in := a.grantIn[o]
			if in < 0 {
				continue
			}
			ci := a.grantIdx[o]
			if best := grants[in]; best == NoGrant {
				grants[in] = ci
			} else if c, b := cands[in][ci], cands[in][best]; betterCopy(c, b) || (!betterCopy(b, c) && o < b.Output) {
				grants[in] = ci
			}
		}
		unmatched := free[:0]
		for _, in := range free {
			if g := grants[in]; g != NoGrant {
				a.matchIn[cands[in][g].Output] = in
			} else {
				unmatched = append(unmatched, in)
			}
		}
		if len(unmatched) == len(free) {
			break
		}
		free = unmatched
	}
	if a.augment {
		for _, in := range free {
			for _, o := range outs {
				a.visited[o] = false
			}
			a.tryAugment(cands, grants, in)
		}
	}
	for _, o := range outs {
		a.seen[o] = false
	}
}

// betterCopy is better on copies of its operands, as the arbiter compared
// before it compared in place.
func betterCopy(a, b Candidate) bool { return better(&a, &b) }

// referencePIM is PIMArbiter.Schedule with the grant loop the request
// buckets replaced: every free output rescans every unmatched input's
// candidates for its first request. It runs on a's scratch and RNG, so a
// twin arbiter of the one under test drives it.
func referencePIM(a *PIMArbiter, cands [][]Candidate, grants []int) {
	n := len(grants)
	a.grow(n)
	for i := range grants {
		grants[i] = NoGrant
	}
	var reqIns, reqIdx []int
	for iter := 0; iter < a.iterations; iter++ {
		for in := 0; in < n; in++ {
			a.grantCount[in] = 0
		}
		for o := 0; o < n; o++ {
			a.grantFor[o] = -1
			if a.outTaken[o] {
				continue
			}
			reqIns, reqIdx = reqIns[:0], reqIdx[:0]
			for in := 0; in < n && in < len(cands); in++ {
				if a.inMatched[in] {
					continue
				}
				for ci, c := range cands[in] {
					if c.Output == o {
						reqIns = append(reqIns, in)
						reqIdx = append(reqIdx, ci)
						break
					}
				}
			}
			if len(reqIns) == 0 {
				continue
			}
			k := a.rng.Intn(len(reqIns))
			a.grantFor[o] = reqIns[k]
			a.grantForIdx[o] = reqIdx[k]
			a.grantCount[reqIns[k]]++
		}
		progress := false
		for in := 0; in < n; in++ {
			if a.inMatched[in] || a.grantCount[in] == 0 {
				continue
			}
			pick := a.rng.Intn(a.grantCount[in])
			for o := 0; o < n; o++ {
				if a.grantFor[o] != in {
					continue
				}
				if pick == 0 {
					grants[in] = a.grantForIdx[o]
					a.inMatched[in] = true
					a.outTaken[o] = true
					progress = true
					break
				}
				pick--
			}
		}
		if !progress {
			break
		}
	}
}

// arbiterTwins pairs each arbiter shape with a twin the references drive:
// the priority arbiter with and without augmentation under 0–3 iteration
// bounds, and PIM under 1–4 iterations, each PIM pair on RNGs seeded alike.
// They are reused across cases and widths, so scratch a call leaves stale
// shows.
type arbiterTwins struct {
	prio, prioRef []*PriorityArbiter
	pim, pimRef   []*PIMArbiter
}

func newArbiterTwins() *arbiterTwins {
	tw := &arbiterTwins{}
	for it := 0; it <= 3; it++ {
		for _, augment := range []bool{true, false} {
			a, ref := NewPriorityArbiter(it), NewPriorityArbiter(it)
			a.augment, ref.augment = augment, augment
			tw.prio, tw.prioRef = append(tw.prio, a), append(tw.prioRef, ref)
		}
		seed := uint64(it) + 1
		tw.pim = append(tw.pim, NewPIMArbiter(sim.NewRNG(seed), it+1))
		tw.pimRef = append(tw.pimRef, NewPIMArbiter(sim.NewRNG(seed), it+1))
	}
	return tw
}

// check runs every arbiter and its reference on cands over ports ports —
// as many as the candidate rows, or more, whose inputs have no row — and
// requires the same grants and, for PIM, the same RNG position.
func (tw *arbiterTwins) check(t *testing.T, cands [][]Candidate, ports int) {
	t.Helper()
	got, want := make([]int, ports), make([]int, ports)
	compare := func(name string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %d ports: grants %v, reference %v, candidates %+v", name, ports, got, want, cands)
		}
	}
	for i, a := range tw.prio {
		for j := range got {
			got[j], want[j] = 12345, 54321 // Schedule must overwrite every entry
		}
		a.Schedule(cands, got)
		referencePriority(tw.prioRef[i], cands, want)
		compare(a.Name())
	}
	for i, a := range tw.pim {
		a.Schedule(cands, got)
		referencePIM(tw.pimRef[i], cands, want)
		compare(a.Name())
		if a.rng.State() != tw.pimRef[i].rng.State() {
			t.Fatalf("%s, %d ports: drew a different number of random values than the reference, candidates %+v", a.Name(), ports, cands)
		}
	}
}

// FuzzArbitersMatchReference holds the priority arbiter's in-place
// comparisons and PIM's request buckets to the loops they replaced, on the
// request graphs of matchingCase — duplicate outputs within an input,
// outputs out of range, inputs with no candidate — widened by up to two
// ports with no candidate row.
func FuzzArbitersMatchReference(f *testing.F) {
	for _, s := range [][4]uint8{{1, 6, 7, 0}, {2, 14, 7, 2}, {3, 0, 0, 1}, {4, 6, 0, 0}, {5, 3, 3, 1}} {
		f.Add(uint64(s[0]), s[1], s[2], s[3])
	}
	tw := newArbiterTwins()
	f.Fuzz(func(t *testing.T, seed uint64, ports, maxCand, extra uint8) {
		cands := matchingCase(seed, ports, maxCand)
		tw.check(t, cands, len(cands)+int(extra)%3)
	})
}

// TestArbitersMatchReference sweeps FuzzArbitersMatchReference's property
// over every width matchingCase draws.
func TestArbitersMatchReference(t *testing.T) {
	tw := newArbiterTwins()
	for seed := uint64(0); seed < 600; seed++ {
		cands := matchingCase(seed, uint8(seed), uint8(seed/15))
		tw.check(t, cands, len(cands)+int(seed%3))
	}
}

// arbiterBenchCases are request graphs of the paper's 8×8 router: every
// input nominates cands candidates on distinct outputs, sorted best first,
// as link schedulers hand them over. The benchmarks cycle through them.
func arbiterBenchCases(cands int) [][][]Candidate {
	rng := sim.NewRNG(11)
	const ports = 8
	cases := make([][][]Candidate, 64)
	for k := range cases {
		cs := make([][]Candidate, ports)
		for in := range cs {
			outs := make([]int, ports)
			for i := range outs {
				outs[i] = i
			}
			for i := ports - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				outs[i], outs[j] = outs[j], outs[i]
			}
			for vc := 0; vc < cands; vc++ {
				cs[in] = append(cs[in], Candidate{Input: in, VC: vc, Output: outs[vc],
					Phase: Phase(rng.Intn(3)), Priority: float64(rng.Intn(40))})
			}
			sortCandidates(cs[in])
		}
		cases[k] = cs
	}
	return cases
}

func benchmarkArbiter(b *testing.B, newArbiter func() SwitchScheduler) {
	for _, bc := range []struct {
		name  string
		cands int
	}{{"1C", 1}, {"8C", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			cases := arbiterBenchCases(bc.cands)
			a := newArbiter()
			grants := make([]int, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Schedule(cases[i%len(cases)], grants)
			}
		})
	}
}

// BenchmarkPriorityArbiter measures the paper's switch scheduler on an 8×8
// router at the two ends of the candidate sweep.
func BenchmarkPriorityArbiter(b *testing.B) {
	benchmarkArbiter(b, func() SwitchScheduler { return NewPriorityArbiter(0) })
}

// BenchmarkPIMArbiter measures the Autonet comparison's matching (three
// iterations, as the router runs it) on an 8×8 router at the two ends of
// the candidate sweep.
func BenchmarkPIMArbiter(b *testing.B) {
	benchmarkArbiter(b, func() SwitchScheduler { return NewPIMArbiter(sim.NewRNG(3), 3) })
}
