package network

import (
	"testing"

	"mmr/internal/flit"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// TestRunSparseSteadyStateAllocs: Run over a sparse workload — six slow
// sessions and one trickle of packets on a 4×4 mesh, so the path that
// alternates whole-clock fast-forward with normal cycles — allocates
// nothing once warm, and neither does the ungated reference stepping the
// same workload cycle by cycle. The SoA datapath's flat backings (lane
// arrays, occupancy counters) are sized at construction and must never
// grow in steady state.
func TestRunSparseSteadyStateAllocs(t *testing.T) {
	for _, noIdleSkip := range []bool{false, true} {
		tp, err := topology.Mesh(4, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(tp)
		cfg.Seed = 31
		cfg.NoIdleSkip = noIdleSkip
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(13)
		for opened, i := 0, 0; i < 200 && opened < 6; i++ {
			src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
			if src == dst {
				continue
			}
			// Slow connections: hundreds of idle cycles between flits.
			if _, err := n.Open(src, dst, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 2 * traffic.Mbps}); err == nil {
				opened++
			}
		}
		if _, err := n.AddBestEffortFlow(0, 15, 0.001); err != nil {
			t.Fatal(err)
		}
		n.Run(20_000)
		skipped := n.idleSkipped
		avg := testing.AllocsPerRun(20, func() { n.Run(500) })
		if avg > 0.05 {
			t.Errorf("NoIdleSkip=%v: steady-state Run allocates %.3f allocs per 500-cycle window, want 0", noIdleSkip, avg)
		}
		if !noIdleSkip && n.idleSkipped == skipped {
			t.Fatal("Run never fast-forwarded during the alloc measurement: the workload is not sparse")
		}
	}
}

// TestBestEffortFlowOwnerIDs: standalone flows get distinct nonzero
// owner handles; CloseFlow retires exactly the named flow (its
// generator leaves the source node's injector list), double-close and
// unknown IDs fail, and the surviving flow keeps generating.
func TestBestEffortFlowOwnerIDs(t *testing.T) {
	tp, err := topology.Mesh(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(DefaultConfig(tp))
	if err != nil {
		t.Fatal(err)
	}
	id1, err := n.AddBestEffortFlow(0, 5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := n.AddBestEffortFlow(0, 9, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if id1 == 0 || id2 == 0 || id1 == id2 {
		t.Fatalf("flow IDs must be distinct and nonzero: %d, %d", id1, id2)
	}
	n.Run(500)
	if err := n.CloseFlow(id1); err != nil {
		t.Fatalf("close flow %d: %v", id1, err)
	}
	if err := n.CloseFlow(id1); err == nil {
		t.Fatal("double close of a flow succeeded")
	}
	if err := n.CloseFlow(FlowID(9999)); err == nil {
		t.Fatal("closing an unknown flow ID succeeded")
	}
	if len(n.beFlows) != 1 || n.beFlows[0].id != id2 {
		t.Fatalf("flow registry after close: %d flows, want exactly flow %d", len(n.beFlows), id2)
	}
	if got := len(n.nodes[0].beSrc); got != 1 {
		t.Fatalf("source node still lists %d generators, want 1", got)
	}
	before := n.Stats().BEGenerated
	n.Run(2000)
	if after := n.Stats().BEGenerated; after <= before {
		t.Fatal("surviving flow stopped generating after a sibling was closed")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants after flow close: %v", err)
	}
}

// TestCloseFlowRefusesDegradedFallback: the fallback flow a degraded
// connection sheds traffic onto is owned by that connection — CloseFlow
// must refuse it (closing the connection retires flow and session state
// together; retiring just the flow would strand a half-open session).
func TestCloseFlowRefusesDegradedFallback(t *testing.T) {
	n, victim := healingScenario(t, FaultPolicy{
		Restore: false, MaxRetries: 5, RetryBackoff: 32, Degrade: true, Paranoid: true,
	})
	n.Run(5000)
	if !victim.Degraded {
		t.Fatalf("victim should be degraded (broken=%v lost=%v)", victim.Broken(), victim.Lost())
	}
	var fallback FlowID
	for _, bf := range n.beFlows {
		if bf.conn == victim.ID {
			fallback = bf.id
			break
		}
	}
	if fallback == 0 {
		t.Fatal("degraded connection has no fallback flow (or it got no owner ID)")
	}
	if err := n.CloseFlow(fallback); err == nil {
		t.Fatal("CloseFlow retired a degraded connection's fallback flow")
	}
	if err := n.Close(victim); err != nil {
		t.Fatalf("close degraded connection: %v", err)
	}
	if err := n.CloseFlow(fallback); err == nil {
		t.Fatal("fallback flow survived its connection's close")
	}
}
