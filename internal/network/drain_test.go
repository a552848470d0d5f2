package network

import (
	"runtime"
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

// TestDrainAndCloseAllocsIndependentOfWait: DrainAndClose polls a predicate
// that formats nothing, so how many cycles it waits does not change what it
// allocates. The same session shape is drained over short and long wires
// (different waits) and must allocate the same.
func TestDrainAndCloseAllocsIndependentOfWait(t *testing.T) {
	drain := func(linkDelay int64) (waited int64, allocs uint64) {
		tp, err := topology.Mesh(3, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(tp)
		cfg.VCs = 16
		cfg.LinkDelay = linkDelay
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := n.Open(0, 2, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 55 * traffic.Mbps})
		if err != nil {
			t.Fatal(err)
		}
		n.Run(3000)
		// Step until a flit or a credit is in the fabric, so the drain must wait.
		inFabric := func() bool {
			for i, ref := range c.VCs {
				x := n.nodes[c.Nodes[i]]
				if x.Mems[ref.Port].Len(ref.VC) != 0 || x.Credits[ref.Port].Available(ref.VC) != cfg.Depth {
					return true
				}
			}
			return false
		}
		for i := 0; i < 10_000 && !inFabric(); i++ {
			n.Step()
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		start := n.Now()
		runtime.ReadMemStats(&before)
		err = n.DrainAndClose(c, 10_000)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("link delay %d: %v", linkDelay, err)
		}
		return n.Now() - start, after.Mallocs - before.Mallocs
	}
	shortWait, shortAllocs := drain(1)
	longWait, longAllocs := drain(6)
	if shortWait == longWait || shortWait == 0 {
		t.Fatalf("drains waited %d and %d cycles: want two different, nonzero waits", shortWait, longWait)
	}
	if shortAllocs != longAllocs {
		t.Errorf("a drain waiting %d cycles allocated %d times, one waiting %d cycles %d times", shortWait, shortAllocs, longWait, longAllocs)
	}
}
