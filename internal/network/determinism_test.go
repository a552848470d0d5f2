package network

import (
	"reflect"
	"testing"

	"mmr/internal/faults"
	"mmr/internal/flit"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// detScenario runs the same loaded 4×4-mesh session and returns
// everything observable: the statistics snapshot and the session event
// log. The workload exercises every RNG consumer the cycle's phases
// touch — CBR and VBR stream sources, Poisson best-effort flows, packet
// VC selection — and, with faults on, link failures with restoration
// plus per-flit impairment draws.
func detScenario(t *testing.T, withFaults bool) (*Stats, []SessionEvent) {
	t.Helper()
	n := buildDetNetwork(t, withFaults)
	n.Run(1200)
	n.ResetStats()
	n.Run(1800)
	return n.Stats(), n.SessionEvents()
}

// buildDetNetwork constructs the detScenario network — loaded 4×4 mesh,
// 48 connections, best-effort flows, optional fault plan — without
// running it, so tests needing a live network handle (metrics,
// flight-recorder) share the exact same scenario.
func buildDetNetwork(t *testing.T, withFaults bool) *Network {
	t.Helper()
	return buildDetNetworkOn(t, detConfig(t, false), withFaults)
}

// buildDetNetworkOn builds the detScenario network on cfg, detConfig's with
// whatever the caller changed.
func buildDetNetworkOn(t *testing.T, cfg Config, withFaults bool) *Network {
	t.Helper()
	tp := cfg.Topology
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := sim.NewRNG(99)
	opened := 0
	for i := 0; i < 300 && opened < 48; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src == dst {
			continue
		}
		spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.PaperRates[rng.Intn(len(traffic.PaperRates))]}
		if i%3 == 0 {
			spec.Class = flit.ClassVBR
			spec.PeakRate = 2 * spec.Rate
		}
		if _, err := n.Open(src, dst, spec); err == nil {
			opened++
		}
	}
	if opened < 16 {
		t.Fatalf("only %d connections established", opened)
	}
	for i := 0; i < 12; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src != dst {
			n.AddBestEffortFlow(src, dst, 0.01)
		}
	}

	if withFaults {
		plan := faults.NewPlan(3).
			FailLinkAt(500, 5, 1).
			RestoreLinkAt(1500, 5, 1).
			FailRouterAt(900, 10).
			RestoreRouterAt(1900, 10).
			Impair(1, 1, 0.01, 0.005).
			Impair(6, 2, 0.02, 0)
		if err := n.ApplyPlan(plan, 3000); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestNetworkStepDeterminism: a run is a function of its seed — building
// and running the same scenario again reproduces the statistics
// (including floating-point accumulator state, compared exactly by
// reflect.DeepEqual) and the session event log, with and without an
// active fault plan. What it catches is map-order dependence and RNG
// draws that depend on anything but the seed.
func TestNetworkStepDeterminism(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		name := "clean"
		if withFaults {
			name = "faults"
		}
		t.Run(name, func(t *testing.T) {
			refStats, refEvents := detScenario(t, withFaults)
			if refStats.FlitsDelivered == 0 || refStats.BEDelivered == 0 {
				t.Fatalf("degenerate scenario: %v", refStats)
			}
			if withFaults && refStats.ConnsBroken == 0 {
				t.Fatal("fault scenario broke no connections")
			}
			st, ev := detScenario(t, withFaults)
			if !reflect.DeepEqual(refStats, st) {
				t.Errorf("second run diverged from the first:\nfirst:  %+v\nsecond: %+v", refStats, st)
			}
			if !reflect.DeepEqual(refEvents, ev) {
				t.Errorf("session log diverged (%d vs %d events)", len(refEvents), len(ev))
			}
		})
	}
}

// TestNetworkStepSteadyStateAllocs: the warmed-up cycle allocates nothing
// per step — flits come from per-node pools, lanes and rings reuse their
// backing arrays. (Staging-lane growth is amortized: the warmup runs
// every lane past its high-water mark, after which pushes reuse capacity;
// testing.AllocsPerTest-style averaging over 400 cycles tolerates the
// rare residual growth event while still failing on any per-cycle
// allocation.)
func TestNetworkStepSteadyStateAllocs(t *testing.T) {
	tp, _ := topology.Mesh(4, 4, 4)
	cfg := DefaultConfig(tp)
	cfg.Seed = 7
	n, _ := New(cfg)
	rng := sim.NewRNG(42)
	for i, opened := 0, 0; i < 400 && opened < 64; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src == dst {
			continue
		}
		rate := traffic.PaperRates[rng.Intn(len(traffic.PaperRates))]
		if _, err := n.Open(src, dst, traffic.ConnSpec{Class: flit.ClassCBR, Rate: rate}); err == nil {
			opened++
		}
	}
	for i := 0; i < 16; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src != dst {
			n.AddBestEffortFlow(src, dst, 0.02)
		}
	}
	n.Run(3000) // past every pool/lane/ring high-water mark
	avg := testing.AllocsPerRun(400, func() { n.Step() })
	if avg > 0.05 {
		t.Errorf("steady-state Step allocates %.3f allocs/cycle, want 0", avg)
	}
}
