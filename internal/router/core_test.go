package router

import (
	"testing"

	"mmr/internal/sched"
)

// countingArbiter counts the Schedule calls that reach the real scheduler.
type countingArbiter struct {
	sched.SwitchScheduler
	calls int
}

func (a *countingArbiter) Schedule(cands [][]sched.Candidate, grants []int) {
	a.calls++
	a.SwitchScheduler.Schedule(cands, grants)
}

// TestGatingFlagReadEveryCycle: the gated ≡ NoIdleSkip suites of both
// engines flip NoIdleSkip after New, so the core must take the flag from
// the engine's Config each cycle, not keep a copy from Init — a reference
// side that still skipped idle ports and the arbiter would compare the
// gated path with itself.
func TestGatingFlagReadEveryCycle(t *testing.T) {
	r, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	arb := &countingArbiter{SwitchScheduler: r.core.arbiter}
	r.core.arbiter = arb

	r.Step()
	if arb.calls != 0 {
		t.Fatalf("gated idle cycle ran the switch scheduler %d times, want 0", arb.calls)
	}
	for in, g := range r.core.Grants {
		if g != sched.NoGrant {
			t.Fatalf("gated idle cycle: Grants[%d] = %d, want NoGrant", in, g)
		}
	}
	r.cfg.NoIdleSkip = true
	r.Step()
	if arb.calls != 1 {
		t.Fatalf("NoIdleSkip set after New: idle cycle ran the switch scheduler %d times, want 1", arb.calls)
	}
	r.cfg.NoIdleSkip = false
	r.Step()
	if arb.calls != 1 {
		t.Fatalf("gating restored: idle cycle ran the switch scheduler, calls = %d, want 1", arb.calls)
	}
}
