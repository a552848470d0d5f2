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
// Every arbiter but the perfect switch must also serve a sub-permutation
// each cycle (checkSubPermutation): the grants are the switch's whole
// configuration, which nothing else checks.
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
						checkSubPermutation(t, r)
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

// checkSubPermutation fails t if r's last arbitration connected an output
// to two inputs, unless its arbiter shares outputs (the perfect switch).
func checkSubPermutation(t *testing.T, r *Router) {
	t.Helper()
	if r.core.arbiter.OutputSharing() {
		return
	}
	from := make([]int, r.cfg.Ports)
	for i := range from {
		from[i] = -1
	}
	for in, g := range r.core.Grants {
		if g == sched.NoGrant {
			continue
		}
		out := r.core.Cands[in][g].Output
		if from[out] >= 0 {
			t.Fatalf("cycle %d: output %d granted to inputs %d and %d", r.now-1, out, from[out], in)
		}
		from[out] = in
	}
}

// backlog is what r's network interfaces hold: the flits its sources made
// that wait outside the VC memories, which credit flow control caps at the
// VC depth per connection, so an unstable switch shows here, not in Q.
func backlog(r *Router) int64 {
	b := int64(0)
	for _, c := range r.conns {
		b += int64(c.ni.Queue.Len())
	}
	return b
}

// TestQueueBounded checks the stability "From MWM to iSLIP" proves for
// maximum weight matching and the paper's ≥ 95 % utilization assumes: at
// admissible load the queues stay bounded. Each of the four switch arbiters
// at 1, 2, 4 and 8 candidates (1 and 8 under -short) carries a CBR-only
// workload at 0.9 load. After a 60,000-cycle warm-up (the biased scheme's
// transient at this load) it compares the means of Q (queued) and of the NI
// backlog (backlog) over two equal windows; a mean rose if the second
// exceeds the first by more than 5 % plus one flit. At a stationary level
// window means moved by under 3 %; a growing backlog gains 15 % or more a
// window. Q must not rise in any cell. The NI backlog must not rise but in
// the cells queueBoundFindings lists, whose switch saturates below 0.9
// load — the finding EXPERIMENTS.md records under "Queue boundedness" —
// and there it must rise: a cell whose verdict changes fails until the
// list and EXPERIMENTS.md follow it.
func TestQueueBounded(t *testing.T) {
	const warm, window = 60_000, 20_000
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
				means := func() (q, ni float64) {
					for i := 0; i < window; i++ {
						r.runCycles(1)
						q += float64(queued(r))
						ni += float64(backlog(r))
					}
					return q / window, ni / window
				}
				q1, ni1 := means()
				q2, ni2 := means()
				rose := func(first, second float64) bool { return second > first*1.05+1 }
				msg := fmt.Sprintf("mean Q %.1f → %.1f, mean NI backlog %.1f → %.1f over cycles %d–%d and the next %d",
					q1, q2, ni1, ni2, warm, warm+window, window)
				switch grows := rose(ni1, ni2); {
				case rose(q1, q2):
					t.Fatal(msg)
				case grows && queueBoundFindings[cell]:
					t.Log("finding (EXPERIMENTS.md, Queue boundedness), the switch saturates below 0.9 load: " + msg)
				case grows:
					t.Fatal(msg)
				case queueBoundFindings[cell]:
					t.Fatalf("listed in queueBoundFindings but its NI backlog is bounded now (%s): prune it and EXPERIMENTS.md", msg)
				}
			})
		}
	}
}

// queueBoundFindings are TestQueueBounded's cells whose NI backlog grows
// window over window at 0.9 load: their switch saturates below it.
var queueBoundFindings = map[string]bool{
	"priority/1C": true, "priority/2C": true,
	"autonet/1C": true, "autonet/2C": true, "autonet/4C": true, "autonet/8C": true,
	"islip/1C": true, "islip/2C": true, "islip/4C": true, "islip/8C": true,
}
