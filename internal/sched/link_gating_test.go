package sched

import (
	"reflect"
	"testing"

	"mmr/internal/bitvec"
	"mmr/internal/flit"
	"mmr/internal/flow"
	"mmr/internal/vcm"
)

// TestLinkCountersGatingEquivalence drives two identical ports through the
// same intermittent workload — flit bursts separated by idle gaps, credit
// starvation windows, round-boundary resets — with one port scanned every
// cycle and the other scanned only while its memory holds its Busy bit set
// (exactly the skip rule the activity-gated engines apply). The candidate
// stream and every LinkCounters field (Nominated, CreditStalled,
// RoundExhausted, BiasBoosted) must match bit for bit: skipping a port on
// an idle cycle may not change what it counts, because CreditStalled and
// RoundExhausted are defined over *buffered* flits and an idle port has
// none.
func TestLinkCountersGatingEquivalence(t *testing.T) {
	build := func() (*LinkScheduler, *vcm.Memory, *flow.Credits) {
		mem := vcm.MustNew(vcm.Config{VirtualChannels: 8, Depth: 2})
		cr := flow.NewCredits(8, 2)
		ls := NewLinkScheduler(LinkConfig{Input: 0, MaxCandidates: 2, Outputs: 4}, mem, cr)
		// VC 1: tight allocation so round enforcement trips (RoundExhausted).
		mem.Reserve(1, vcm.VCState{Conn: 1, Class: flit.ClassCBR, Allocated: 1, InterArrival: 10, Output: 0, BasePriority: 2})
		mem.Reserve(2, vcm.VCState{Conn: 2, Class: flit.ClassCBR, Allocated: 100, InterArrival: 25, Output: 1, BasePriority: 1})
		mem.Reserve(3, vcm.VCState{Conn: 3, Class: flit.ClassVBR, Allocated: 1, Peak: 3, InterArrival: 40, Output: 2, BasePriority: 3})
		return ls, mem, cr
	}
	lsAll, memAll, crAll := build()
	lsGated, memGated, crGated := build()
	// The gated port sits at bit 2 of a router's Busy vector.
	var occ int64
	busy := bitvec.New(4)
	memGated.BindOccupancy(&occ, busy, 2)

	skipped := 0
	for now := int64(0); now < 2000; now++ {
		if now%50 == 0 {
			lsAll.OnRoundBoundary()
			lsGated.OnRoundBoundary()
		}
		// Burst arrivals: three flits every 40 cycles, then silence while
		// the port drains — the drained gap is where gating skips scans.
		if now%40 == 0 {
			for _, vc := range []int{1, 2, 3} {
				f := &flit.Flit{Conn: flit.ConnID(vc), ReadyAt: now}
				memAll.Push(vc, f)
				g := *f
				memGated.Push(vc, &g)
			}
		}
		// Credit starvation window for VC 2: consume both credits just
		// after a burst lands (now≡1 mod 160), return them at now≡29 —
		// CreditStalled accrues on the cycles between, on both sides
		// alike, and the stalled flit keeps the port active throughout.
		switch now % 160 {
		case 1:
			if crAll.Available(2) == 2 {
				crAll.Consume(2)
				crAll.Consume(2)
				crGated.Consume(2)
				crGated.Consume(2)
			}
		case 29:
			for crAll.Available(2) < 2 {
				crAll.Return(2)
				crGated.Return(2)
			}
		}

		candsAll := lsAll.Candidates(now, nil)
		var candsGated []Candidate
		if busy.Count() > 1 || busy.Test(2) != (memGated.Occupied() > 0) || occ != int64(memGated.Occupied()) {
			t.Fatalf("cycle %d: Busy %v and count %d with %d flits buffered", now, busy, occ, memGated.Occupied())
		}
		if busy.Test(2) {
			candsGated = lsGated.Candidates(now, nil)
		} else {
			skipped++
			if len(candsAll) != 0 {
				t.Fatalf("cycle %d: gated port idle but ungated port nominated %+v", now, candsAll)
			}
		}
		if busy.Test(2) && !reflect.DeepEqual(candsAll, candsGated) {
			t.Fatalf("cycle %d: candidates diverged\nall:   %+v\ngated: %+v", now, candsAll, candsGated)
		}
		// Grant the best candidate: pop the flit and count it serviced,
		// identically on both sides (grant decisions derive from the
		// candidate streams, which were just proven equal).
		if len(candsAll) > 0 {
			vc := candsAll[0].VC
			memAll.Pop(vc)
			memAll.IncServiced(vc)
			memGated.Pop(vc)
			memGated.IncServiced(vc)
		}
	}

	if skipped == 0 {
		t.Fatal("workload never idled: the gated path was not exercised")
	}
	if a, g := lsAll.Counters(), lsGated.Counters(); a != g {
		t.Fatalf("counters diverged after gating (skipped %d scans):\nall:   %+v\ngated: %+v", skipped, a, g)
	}
	if lsAll.Counters().CreditStalled == 0 {
		t.Fatal("scenario never credit-stalled: CreditStalled equivalence untested")
	}
	if lsAll.Counters().RoundExhausted == 0 {
		t.Fatal("scenario never exhausted a round: RoundExhausted equivalence untested")
	}
}
