package sched

import (
	"math/rand"
	"reflect"
	"testing"
)

// refPriorityArbiter is the port-scanning form of PriorityArbiter.Schedule
// — every loop runs over all n inputs or all n outputs — kept as the
// reference the list-walking form is held to.
type refPriorityArbiter struct {
	iterations int
	augment    bool

	grantIn, grantIdx, matchIn   []int
	inMatched, outTaken, visited []bool
}

func (a *refPriorityArbiter) schedule(cands [][]Candidate, grants []int) {
	n := len(grants)
	a.grantIn, a.grantIdx, a.matchIn = make([]int, n), make([]int, n), make([]int, n)
	a.inMatched, a.outTaken, a.visited = make([]bool, n), make([]bool, n), make([]bool, n)
	for i := range grants {
		grants[i] = NoGrant
	}
	maxIter := a.iterations
	if maxIter <= 0 {
		maxIter = n
	}
	for iter := 0; iter < maxIter; iter++ {
		for o := 0; o < n; o++ {
			a.grantIn[o] = -1
		}
		for in := 0; in < n && in < len(cands); in++ {
			if a.inMatched[in] {
				continue
			}
			for ci, c := range cands[in] {
				o := c.Output
				if o < 0 || o >= n || a.outTaken[o] {
					continue
				}
				if a.grantIn[o] < 0 || better(&c, &cands[a.grantIn[o]][a.grantIdx[o]]) {
					a.grantIn[o] = in
					a.grantIdx[o] = ci
				}
			}
		}
		progress := false
		for o := 0; o < n; o++ {
			in := a.grantIn[o]
			if in < 0 || a.inMatched[in] {
				continue
			}
			best, bestIdx := o, a.grantIdx[o]
			for o2 := o + 1; o2 < n; o2++ {
				if a.grantIn[o2] == in && better(&cands[in][a.grantIdx[o2]], &cands[in][bestIdx]) {
					best, bestIdx = o2, a.grantIdx[o2]
				}
			}
			grants[in] = bestIdx
			a.inMatched[in] = true
			a.outTaken[best] = true
			progress = true
			for o2 := 0; o2 < n; o2++ {
				if a.grantIn[o2] == in && o2 != best {
					a.grantIn[o2] = -1
				}
			}
		}
		if !progress {
			break
		}
	}
	if !a.augment {
		return
	}
	for o := 0; o < n; o++ {
		a.matchIn[o] = -1
	}
	for in, g := range grants {
		if g != NoGrant {
			a.matchIn[cands[in][g].Output] = in
		}
	}
	for in := 0; in < n && in < len(cands); in++ {
		if grants[in] != NoGrant || len(cands[in]) == 0 {
			continue
		}
		for o := 0; o < n; o++ {
			a.visited[o] = false
		}
		a.tryAugment(cands, grants, in)
	}
}

func (a *refPriorityArbiter) tryAugment(cands [][]Candidate, grants []int, in int) bool {
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

// TestPriorityArbiterMatchesPortScan: the same grants as the port-scanning
// reference for every switch width, iteration bound and candidate shape —
// sparse and full request matrices, repeated outputs within an input, equal
// keys, outputs out of range, fewer candidate rows than ports — on one
// arbiter reused across calls and widths, so stale scratch would show.
func TestPriorityArbiterMatchesPortScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, augment := range []bool{true, false} {
		for iters := 0; iters <= 3; iters++ {
			arb := NewPriorityArbiter(iters)
			arb.augment = augment
			ref := &refPriorityArbiter{iterations: iters, augment: augment}
			for trial := 0; trial < 1500; trial++ {
				n := 1 + rng.Intn(40)
				if trial%3 == 0 {
					n = []int{8, 17, 33, 65, 70}[rng.Intn(5)]
				}
				rows := n
				if rng.Intn(10) == 0 {
					rows = rng.Intn(n + 1)
				}
				density := rng.Float64()
				cands := make([][]Candidate, rows)
				for in := range cands {
					if rng.Float64() > density {
						continue
					}
					for k := rng.Intn(9); k > 0; k-- {
						c := Candidate{Input: in, VC: rng.Intn(4), Output: rng.Intn(n+2) - 1,
							Phase: Phase(rng.Intn(4)), Priority: float64(rng.Intn(3))}
						cands[in] = append(cands[in], c)
					}
				}
				got, want := make([]int, n), make([]int, n)
				for i := range got {
					got[i] = 12345 // Schedule must overwrite every entry
				}
				arb.Schedule(cands, got)
				ref.schedule(cands, want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("augment %v, %d iterations, %d ports, candidates %+v:\ngrants %v\nport scan %v", augment, iters, n, cands, got, want)
				}
			}
		}
	}
}
