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

// TestQueueBounded checks the stability "From MWM to iSLIP" proves for
// maximum weight matching and the paper's ≥ 95 % utilization assumes: at
// admissible load Q stays bounded. Each of the four switch arbiters at 1, 2,
// 4 and 8 candidates (1 and 8 under -short) carries a CBR-only workload at
// 0.9 load; after a warm-up, the peak of Q (queued) over the second of two
// equal windows must not exceed its peak over the first. A cell listed in
// queueBoundFindings failed that when the test was written; it is the
// finding EXPERIMENTS.md records under "Queue boundedness", and is skipped
// while it still fails.
func TestQueueBounded(t *testing.T) {
	const warm, window = 20_000, 20_000
	cands := []int{1, 2, 4, 8}
	if testing.Short() {
		cands = []int{1, 8}
	}
	for _, arb := range []ArbiterKind{ArbPriority, ArbAutonet, ArbPerfect, ArbISLIP} {
		for _, c := range cands {
			cell := fmt.Sprintf("%v/%dC", arb, c)
			t.Run(cell, func(t *testing.T) {
				cfg := PaperConfig()
				cfg.Arbiter, cfg.MaxCandidates = arb, c
				if arb == ArbAutonet {
					cfg.Selection = sched.SelectRandom
				}
				r, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.EstablishWorkload(mustWorkload(t, cfg, 0.9, 1)); err != nil {
					t.Fatal(err)
				}
				r.runCycles(warm)
				peak := func() int64 {
					p := int64(0)
					for i := 0; i < window; i++ {
						r.runCycles(1)
						p = max(p, queued(r))
					}
					return p
				}
				first := peak()
				second := peak()
				if second <= first {
					return
				}
				msg := fmt.Sprintf("peak Q rose from %d over cycles %d–%d to %d over the next %d", first, warm, warm+window, second, window)
				if queueBoundFindings[cell] {
					t.Skip("finding (EXPERIMENTS.md, Queue boundedness): " + msg)
				}
				t.Fatal(msg)
			})
		}
	}
}

// queueBoundFindings are TestQueueBounded's cells whose second peak exceeded
// the first at the commit that added the test.
var queueBoundFindings = map[string]bool{
	"priority/1C": true, "priority/4C": true, "priority/8C": true,
	"autonet/2C": true, "autonet/4C": true, "autonet/8C": true,
	"islip/2C": true, "islip/8C": true,
}
