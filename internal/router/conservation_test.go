package router

import (
	"fmt"
	"testing"

	"mmr/internal/sched"
)

// queued is Q of r: the flits its VC memories buffer, summed from the
// records' queue lengths rather than from the Occ mirror the memories keep.
func queued(r *Router) int64 {
	q := int64(0)
	for _, mem := range r.core.Mems {
		for vc := 0; mem.Materialized() && vc < mem.NumVCs(); vc++ {
			q += int64(mem.Len(vc))
		}
	}
	return q
}

// TestQueueConservation holds the paper router to the queue equation of
// "From MWM to iSLIP", Q(t+1) = Q(t) + A(t) − S(t), every cycle: Q is what
// the VC records buffer, A the flits Core.Enqueue wrote (Work.Enqueued) and
// S the flits the switch granted out of their VCs (Work.Grants). It runs
// each of the four switch arbiters at 1 and 8 candidates, gated and under
// NoIdleSkip, with streams at 0.8 load and a best-effort flow per port — a
// fault-free run, in which nothing else moves a flit in or out of a VC.
func TestQueueConservation(t *testing.T) {
	const cycles = 4000
	for _, arb := range []ArbiterKind{ArbPriority, ArbAutonet, ArbPerfect, ArbISLIP} {
		for _, cands := range []int{1, 8} {
			for _, noIdleSkip := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/%dC/noIdleSkip=%v", arb, cands, noIdleSkip), func(t *testing.T) {
					cfg := PaperConfig()
					cfg.Arbiter, cfg.MaxCandidates, cfg.NoIdleSkip = arb, cands, noIdleSkip
					if arb == ArbAutonet {
						cfg.Selection = sched.SelectRandom
					}
					r, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := r.EstablishWorkload(mustWorkload(t, cfg, 0.8, 1)); err != nil {
						t.Fatal(err)
					}
					for p := 0; p < cfg.Ports; p++ {
						if err := r.AddBestEffortFlow(p, (p+3)%cfg.Ports, 0.01); err != nil {
							t.Fatal(err)
						}
					}
					q, w := queued(r), r.core.Work
					for c := 0; c < cycles; c++ {
						r.runCycles(1)
						nq, nw := queued(r), r.core.Work
						if a, s := nw.Enqueued-w.Enqueued, nw.Grants-w.Grants; nq-q != a-s {
							t.Fatalf("cycle %d: Q went %d → %d with %d flits enqueued and %d granted", r.now-1, q, nq, a, s)
						}
						q, w = nq, nw
					}
					if w.Enqueued == 0 || w.Grants == 0 {
						t.Fatalf("degenerate run: %+v", w)
					}
				})
			}
		}
	}
}
