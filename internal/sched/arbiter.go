package sched

import (
	"fmt"

	"mmr/internal/sim"
)

// PriorityArbiter is the MMR's input-driven switch scheduler (§4.4): all
// candidates request their output ports concurrently; each output grants
// to the best-phase/highest-priority requester; each input accepts its
// best granted candidate. The grant/accept exchange iterates so that
// losers' secondary candidates can fill ports freed by earlier rounds,
// approaching a maximal matching — this is why more candidates per input
// raise switch utilization (§5.2).
type PriorityArbiter struct {
	iterations int
	augment    bool
	name       string

	// scratch, reused across cycles to stay allocation-free. The per-output
	// tables are read only at the outputs some candidate requests this
	// cycle, so nothing clears them between cycles but seen.
	ins, outs []int  // requesting inputs (ascending); requested outputs
	seen      []bool // per output: listed in outs
	grantIn   []int  // per output: granted input this iteration, or -1
	grantIdx  []int  // per output: candidate index at that input
	matchIn   []int  // per output: the input matched to it, or -1
	visited   []bool // per output: on the current augmenting search's path
}

// NewPriorityArbiter returns an arbiter that runs up to iterations
// grant/accept rounds per flit cycle (0 means "until converged", which a
// single-cycle hardware implementation approximates with ~log N rounds),
// then grows the priority-seeded matching to a maximum matching with
// augmenting paths — the §4.4 goal of "assigning virtual channels to
// every output link during each flit cycle" (a wavefront-style hardware
// arbiter achieves the same effect).
func NewPriorityArbiter(iterations int) *PriorityArbiter {
	name := "priority"
	if iterations > 0 {
		name = fmt.Sprintf("priority/%d-iter", iterations)
	}
	return &PriorityArbiter{iterations: iterations, augment: true, name: name}
}

// newPriorityArbiterNoAugment returns the arbiter without the augmenting
// pass: the pure iterative grant/accept (maximal, not maximum) matching.
// Only the tests build it, to show what the augmenting pass adds.
func newPriorityArbiterNoAugment(iterations int) *PriorityArbiter {
	a := NewPriorityArbiter(iterations)
	a.augment = false
	a.name += "/no-augment"
	return a
}

// OutputSharing implements SwitchScheduler.
func (a *PriorityArbiter) OutputSharing() bool { return false }

// Name implements SwitchScheduler.
func (a *PriorityArbiter) Name() string { return a.name }

func (a *PriorityArbiter) grow(n int) {
	if len(a.seen) == n {
		return
	}
	a.ins, a.outs = make([]int, 0, n), make([]int, 0, n)
	a.seen = make([]bool, n)
	a.grantIn, a.grantIdx, a.matchIn = make([]int, n), make([]int, n), make([]int, n)
	a.visited = make([]bool, n)
}

// Schedule implements SwitchScheduler. After one pass over the ports to
// clear grants and list the inputs that nominated, it walks that list and
// the outputs its candidates ask for: a cycle's cost follows the candidates,
// whatever the switch width.
func (a *PriorityArbiter) Schedule(cands [][]Candidate, grants []int) {
	n := len(grants)
	a.grow(n)
	free := a.ins[:0] // the requesting inputs still unmatched, ascending
	for in := range grants {
		grants[in] = NoGrant
		if in < len(cands) && len(cands[in]) > 0 {
			free = append(free, in)
		}
	}
	outs := a.outs[:0] // the outputs requested; listed by the first grant phase
	maxIter := a.iterations
	if maxIter <= 0 {
		maxIter = n // convergence bound: one new match minimum per round
	}
	for iter := 0; iter < maxIter && len(free) > 0; iter++ {
		// Grant phase: each free output picks the best requesting candidate
		// from unmatched inputs.
		for _, o := range outs {
			a.grantIn[o] = -1
		}
		for _, in := range free {
			row := cands[in]
			for ci := range row {
				c := &row[ci]
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
				if g := a.grantIn[o]; g < 0 || better(c, &cands[g][a.grantIdx[o]]) {
					a.grantIn[o], a.grantIdx[o] = in, ci
				}
			}
		}
		// Accept phase: each input takes the best grant it received (of
		// equals, the lowest output's), collected in its grants entry.
		for _, o := range outs {
			in := a.grantIn[o]
			if in < 0 {
				continue
			}
			ci := a.grantIdx[o]
			if best := grants[in]; best == NoGrant {
				grants[in] = ci
			} else if c, b := &cands[in][ci], &cands[in][best]; better(c, b) || (!better(b, c) && o < b.Output) {
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
	// Extend the priority-seeded matching to a maximum matching via
	// augmenting paths (Hungarian-style DFS) from the inputs still
	// unmatched. Matched pairs keep their priority ordering; augmentation
	// only re-routes inputs to alternative candidates so that unmatched
	// ports can transmit too.
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

// tryAugment searches for an augmenting path from input in. It is a
// method (not a recursive closure) so the per-cycle Schedule call stays
// allocation-free — a self-referential `var try func(...)` closure is
// heap-allocated on every invocation.
func (a *PriorityArbiter) tryAugment(cands [][]Candidate, grants []int, in int) bool {
	n := len(grants)
	for ci, c := range cands[in] {
		o := c.Output
		if o < 0 || o >= n || a.visited[o] {
			continue
		}
		a.visited[o] = true
		if a.matchIn[o] < 0 || a.tryAugment(cands, grants, a.matchIn[o]) {
			a.matchIn[o] = in
			grants[in] = ci
			return true
		}
	}
	return false
}

// PIMArbiter reproduces the Autonet/DEC comparison algorithm (§5.1, after
// Anderson et al. [2]): parallel iterative matching with uniform random
// selection — outputs grant a random requester, inputs accept a random
// grant. Candidate sets should come from SelectRandom link schedulers so
// both the input-side choice and the output-side arbitration are random,
// as the paper describes.
type PIMArbiter struct {
	rng        *sim.RNG
	iterations int
	name       string

	inMatched []bool
	outTaken  []bool
	// reqs is an iteration's request matrix bucketed by output: output o's
	// requests are reqs[o*n : o*n+reqCount[o]], ascending by input, each the
	// input's first candidate for o.
	reqs        []pimRequest
	reqCount    []int
	grantFor    []int // per output: input granted this iteration, or -1
	grantForIdx []int // per output: candidate index of that grant
	grantCount  []int // per input: grants received this iteration
}

// pimRequest is one input's request for an output: the input and the
// index of its candidate.
type pimRequest struct{ in, ci int32 }

// NewPIMArbiter returns a PIM arbiter running the given number of
// grant/accept iterations (Anderson et al. found log N iterations ≈
// convergence; the Autonet switch used a small fixed count).
func NewPIMArbiter(rng *sim.RNG, iterations int) *PIMArbiter {
	if iterations < 1 {
		iterations = 1
	}
	// Cache the name: Name() is called from experiment hot paths and a
	// per-call Sprintf allocates.
	return &PIMArbiter{rng: rng, iterations: iterations,
		name: fmt.Sprintf("autonet/%d-iter", iterations)}
}

// OutputSharing implements SwitchScheduler.
func (a *PIMArbiter) OutputSharing() bool { return false }

// Name implements SwitchScheduler.
func (a *PIMArbiter) Name() string { return a.name }

func (a *PIMArbiter) grow(n int) {
	if cap(a.inMatched) < n {
		a.inMatched = make([]bool, n)
		a.outTaken = make([]bool, n)
		a.reqs = make([]pimRequest, n*n)
		a.reqCount = make([]int, n)
		a.grantFor = make([]int, n)
		a.grantForIdx = make([]int, n)
		a.grantCount = make([]int, n)
	}
	a.inMatched = a.inMatched[:n]
	a.outTaken = a.outTaken[:n]
	a.reqs = a.reqs[:n*n]
	a.reqCount = a.reqCount[:n]
	a.grantFor = a.grantFor[:n]
	a.grantForIdx = a.grantForIdx[:n]
	a.grantCount = a.grantCount[:n]
	for i := 0; i < n; i++ {
		a.inMatched[i] = false
		a.outTaken[i] = false
	}
}

// Schedule implements SwitchScheduler.
func (a *PIMArbiter) Schedule(cands [][]Candidate, grants []int) {
	n := len(grants)
	a.grow(n)
	for i := range grants {
		grants[i] = NoGrant
	}
	for iter := 0; iter < a.iterations; iter++ {
		// Grant phase — parallel, as in Anderson et al.: every free output
		// grants a uniformly random requester among unmatched inputs,
		// without knowing what other outputs grant. Several outputs may
		// grant the same input; the collisions are what make multiple
		// iterations worthwhile (PIM converges in O(log N) expected
		// iterations).
		//
		// The request matrix is built in one pass over the unmatched inputs
		// in ascending order, so each output's bucket lists its requesters
		// by input, the order its random draw indexes. An input's later
		// candidate for an output it already asked for finds its own
		// request at the end of the bucket and stands aside.
		for i := 0; i < n; i++ {
			a.grantCount[i], a.reqCount[i] = 0, 0
		}
		for in := 0; in < n && in < len(cands); in++ {
			if a.inMatched[in] {
				continue
			}
			row := cands[in]
			for ci := range row {
				o := row[ci].Output
				if o < 0 || o >= n || a.outTaken[o] {
					continue
				}
				k := a.reqCount[o]
				if k > 0 && a.reqs[o*n+k-1].in == int32(in) {
					continue
				}
				a.reqs[o*n+k] = pimRequest{int32(in), int32(ci)}
				a.reqCount[o] = k + 1
			}
		}
		for o := 0; o < n; o++ {
			a.grantFor[o] = -1
			if a.reqCount[o] == 0 {
				continue
			}
			r := a.reqs[o*n+a.rng.Intn(a.reqCount[o])]
			a.grantFor[o] = int(r.in)
			a.grantForIdx[o] = int(r.ci)
			a.grantCount[r.in]++
		}
		// Accept phase: each input granted by one or more outputs accepts
		// one uniformly at random.
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

// PerfectSwitch is the idealized reference of §5.1: internal bandwidth N
// times the link bandwidth, so output conflicts never occur and every
// input transmits its best candidate every cycle. It bounds delay and
// jitter from below and utilization from above.
type PerfectSwitch struct{}

// OutputSharing implements SwitchScheduler.
func (PerfectSwitch) OutputSharing() bool { return true }

// Name implements SwitchScheduler.
func (PerfectSwitch) Name() string { return "perfect" }

// Schedule implements SwitchScheduler.
func (PerfectSwitch) Schedule(cands [][]Candidate, grants []int) {
	for in := range grants {
		if in < len(cands) && len(cands[in]) > 0 {
			grants[in] = 0 // candidates arrive best-first
		} else {
			grants[in] = NoGrant
		}
	}
}
