package faults

import (
	"reflect"
	"testing"

	"mmr/internal/sim"
	"mmr/internal/topology"
)

func TestPlanBuilderAndValidate(t *testing.T) {
	tp, _ := topology.Mesh(3, 3, 4)
	p := NewPlan(7).
		FailLinkAt(100, 0, 0).
		RestoreLinkAt(200, 0, 0).
		FailRouterAt(300, 4).
		RestoreRouterAt(400, 4).
		Impair(1, 0, 0.01, 0.001)
	if err := p.Validate(tp); err != nil {
		t.Fatal(err)
	}
	bad := []*Plan{
		NewPlan(1).FailLinkAt(10, -1, 0),
		NewPlan(1).FailLinkAt(10, 0, 9),
		NewPlan(1).FailLinkAt(10, 0, 1), // unwired port on node 0 of a mesh corner
		NewPlan(1).FailLinkAt(-5, 0, 0), // before cycle 0
		NewPlan(1).FailRouterAt(10, 99), // node out of range
		NewPlan(1).Impair(0, 0, 1.5, 0), // probability > 1
		NewPlan(1).Impair(0, 1, 0.1, 0), // unwired port
		NewPlan(1).WithMTBF(-1, 10),
	}
	for i, bp := range bad {
		if err := bp.Validate(tp); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
}

func TestScheduleSortsAndTruncates(t *testing.T) {
	tp, _ := topology.Mesh(3, 3, 4)
	p := NewPlan(1).
		RestoreLinkAt(50, 0, 0).
		FailLinkAt(10, 0, 0).
		FailRouterAt(10, 2).
		FailLinkAt(999, 1, 0) // beyond the horizon
	ev := p.Schedule(tp, 500)
	if len(ev) != 3 {
		t.Fatalf("schedule has %d events, want 3", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Cycle < ev[i-1].Cycle {
			t.Fatalf("schedule not sorted: %+v", ev)
		}
	}
	// Equal-cycle tie: link events order before router events.
	if ev[0].Kind != LinkDown || ev[1].Kind != RouterDown {
		t.Fatalf("tie order wrong: %+v", ev[:2])
	}
}

func TestStochasticScheduleDeterministic(t *testing.T) {
	rng := sim.NewRNG(3)
	tp, err := topology.Irregular(12, 6, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed uint64) []Event {
		return NewPlan(seed).WithMTBF(5_000, 500).Schedule(tp, 100_000)
	}
	a, b := mk(42), mk(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("stochastic plan produced no events over 20 MTBFs of horizon")
	}
	c := mk(43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	// Per-link sanity: transitions alternate down/up in time order.
	state := map[[2]int]Kind{}
	for _, e := range a {
		if e.Kind != LinkDown && e.Kind != LinkUp {
			t.Fatalf("stochastic schedule produced %v", e.Kind)
		}
		key := [2]int{e.Node, e.Port}
		if prev, ok := state[key]; ok && prev == e.Kind {
			t.Fatalf("link %v transitioned %v twice in a row", key, e.Kind)
		}
		state[key] = e.Kind
	}
}

func TestRandomLinkFailuresDeterministicAndDistinct(t *testing.T) {
	tp, _ := topology.Mesh(4, 4, 4)
	mk := func(seed uint64) []Event {
		return NewPlan(seed).RandomLinkFailures(tp, 5, 1000, 2000, 800).Schedule(tp, 1_000_000)
	}
	a, b := mk(9), mk(9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different failures")
	}
	downs := map[[2]int]bool{}
	nd, nu := 0, 0
	for _, e := range a {
		switch e.Kind {
		case LinkDown:
			nd++
			key := [2]int{e.Node, e.Port}
			if downs[key] {
				t.Fatalf("link %v failed twice", key)
			}
			downs[key] = true
			if e.Cycle < 1000 || e.Cycle >= 3000 {
				t.Fatalf("failure outside window: %+v", e)
			}
		case LinkUp:
			nu++
		}
	}
	if nd != 5 || nu != 5 {
		t.Fatalf("got %d failures, %d restores; want 5 each", nd, nu)
	}
	// Requesting more failures than links clamps.
	ev := NewPlan(1).RandomLinkFailures(tp, 10_000, 0, 1, 0).Schedule(tp, 1_000_000)
	if len(ev) != len(tp.Links) {
		t.Fatalf("clamp failed: %d events for %d links", len(ev), len(tp.Links))
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		LinkDown: "link-down", LinkUp: "link-up",
		RouterDown: "router-down", RouterUp: "router-up",
		Kind(9): "Kind(9)",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestFailRegionAt(t *testing.T) {
	tp, err := topology.Mesh(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Radius 1 around node 5 (x=1,y=1): itself plus its 4 mesh neighbors.
	p := NewPlan(7).FailRegionAt(tp, 5, 1, 1000, 500)
	if err := p.Validate(tp); err != nil {
		t.Fatal(err)
	}
	downs := map[int]bool{}
	ups := map[int]bool{}
	for _, e := range p.Schedule(tp, 10_000) {
		switch e.Kind {
		case RouterDown:
			if e.Cycle != 1000 {
				t.Fatalf("outage not simultaneous: %+v", e)
			}
			downs[e.Node] = true
		case RouterUp:
			if e.Cycle != 1500 {
				t.Fatalf("repair not at downtime: %+v", e)
			}
			ups[e.Node] = true
		}
	}
	wantRegion := map[int]bool{5: true, 1: true, 4: true, 6: true, 9: true}
	if len(downs) != len(wantRegion) || len(ups) != len(wantRegion) {
		t.Fatalf("region covered %d downs / %d ups, want %d", len(downs), len(ups), len(wantRegion))
	}
	for node := range wantRegion {
		if !downs[node] || !ups[node] {
			t.Fatalf("node %d missing from the outage", node)
		}
	}
	// Radius 0: only the center; no restore when downtime is 0.
	ev := NewPlan(7).FailRegionAt(tp, 0, 0, 10, 0).Schedule(tp, 100)
	if len(ev) != 1 || ev[0].Kind != RouterDown || ev[0].Node != 0 {
		t.Fatalf("radius-0 region: %+v", ev)
	}
	// Out-of-range center is a no-op.
	if ev := NewPlan(7).FailRegionAt(tp, 99, 1, 10, 0).Schedule(tp, 100); len(ev) != 0 {
		t.Fatalf("out-of-range center scheduled events: %+v", ev)
	}
}
