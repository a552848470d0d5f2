package network

import (
	"bytes"
	"reflect"
	"testing"

	"mmr/internal/faults"
	"mmr/internal/flit"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// stepReversed is Network.cycle under NoIdleSkip, spelled out again with
// every pass visiting the nodes in descending ID order. It uses no hook
// in the product code: the phase contract (datapath.go) says the order
// within a pass cannot matter, so this stepper and Network.Run must agree.
func stepReversed(n *Network) {
	t := n.now
	n.events.Run(simTime(t))
	for i := len(n.nodes) - 1; i >= 0; i-- {
		n.phaseDeliver(n.nodes[i], t)
	}
	for i := len(n.nodes) - 1; i >= 0; i-- {
		n.phaseSchedule(n.nodes[i], t)
	}
	for i := len(n.nodes) - 1; i >= 0; i-- {
		n.phaseCommit(n.nodes[i], t)
	}
	n.now++
	n.m.Cycles++
}

// buildContendedNetwork is a 4×4 mesh with few VCs, a handful of
// sessions and best-effort flows heavy enough that packets queue for
// downstream VCs at every hop — so which VC a packet finds free, and
// whether it finds one, changes with any reservation seen a pass early or
// late — under the given fault plan.
func buildContendedNetwork(t *testing.T, plan *faults.Plan) *Network {
	t.Helper()
	tp, err := topology.Mesh(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.Seed = 31
	cfg.VCs = 4
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(5)
	for i := 0; i < 12; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src != dst {
			n.Open(src, dst, traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.PaperRates[rng.Intn(len(traffic.PaperRates))]})
		}
	}
	for i := 0; i < 40; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src != dst {
			n.AddBestEffortFlow(src, dst, 0.3)
		}
	}
	if err := n.ApplyPlan(plan, 3000); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestPassOrderIndependent: the phase contract. A fabric stepped with
// each pass running backwards over the nodes ends byte-equal, in
// EncodeState and in Stats, to its twin stepped by Network.Run — clean,
// with impairments dropping flits in the deliver pass, and across link
// outages with best-effort packets contending for downstream VCs. It
// fails as soon as a pass reads, of another node, what that same pass
// writes: the reservation a sending node makes downstream in its commit
// pass relies on exactly this.
func TestPassOrderIndependent(t *testing.T) {
	for _, sc := range []struct {
		name  string
		build func(*testing.T) *Network
		check func(*testing.T, *Network, *Stats)
	}{
		{"clean", func(t *testing.T) *Network { return buildDetNetwork(t, false) },
			func(t *testing.T, _ *Network, st *Stats) {
				if st.FlitsDelivered == 0 || st.BEDelivered == 0 {
					t.Fatalf("degenerate scenario: %+v", st)
				}
			}},
		{"faults", func(t *testing.T) *Network { return buildDetNetwork(t, true) },
			func(t *testing.T, _ *Network, st *Stats) {
				if st.FlitsDropped == 0 || st.ConnsBroken == 0 {
					t.Fatalf("degenerate scenario: %+v", st)
				}
			}},
		// Drops release packet VCs in the deliver pass, with the senders
		// upstream hunting for a free VC in the schedule pass after it.
		{"impairments", func(t *testing.T) *Network {
			plan := faults.NewPlan(3)
			for _, node := range []int{5, 6, 9, 10} { // interior: every port wired
				for port := 0; port < 4; port++ {
					plan.Impair(node, port, 0.05, 0.01)
				}
			}
			return buildContendedNetwork(t, plan)
		},
			func(t *testing.T, _ *Network, st *Stats) {
				if st.FlitsDropped == 0 || st.BEDelivered == 0 {
					t.Fatalf("degenerate scenario: %+v", st)
				}
			}},
		// No impairments: every VC a packet holds was picked in a schedule
		// pass and reserved by its sender in the commit pass after it.
		{"outage", func(t *testing.T) *Network {
			return buildContendedNetwork(t, faults.NewPlan(3).
				FailLinkAt(400, 5, 1).
				RestoreLinkAt(1300, 5, 1).
				FailLinkAt(700, 10, 0).
				RestoreLinkAt(1600, 10, 0))
		},
			func(t *testing.T, n *Network, st *Stats) {
				snap := n.GatherMetrics()
				if st.BEDelivered == 0 || familyTotal(snap, "mmr_net_claim_failed_total") == 0 {
					t.Fatalf("degenerate scenario: %d packets delivered, %d found no downstream VC",
						st.BEDelivered, familyTotal(snap, "mmr_net_claim_failed_total"))
				}
			}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			fwd, rev := sc.build(t), sc.build(t)
			fwd.cfg.NoIdleSkip, rev.cfg.NoIdleSkip = true, true
			const cycles = 2500
			fwd.Run(cycles)
			for i := 0; i < cycles; i++ {
				stepReversed(rev)
			}
			fs, rs := fwd.Stats(), rev.Stats()
			if !reflect.DeepEqual(fs, rs) {
				t.Errorf("stats depend on the order nodes are visited in:\nascending:  %+v\ndescending: %+v", fs, rs)
			}
			fb, err := fwd.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			rb, err := rev.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fb, rb) {
				t.Errorf("end state depends on the order nodes are visited in (%d vs %d bytes)", len(fb), len(rb))
			}
			sc.check(t, fwd, fs)
		})
	}
}
