package sched

import (
	"fmt"
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
		a.augment[it], a.plain[it] = NewPriorityArbiter(it), NewPriorityArbiterNoAugment(it)
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
