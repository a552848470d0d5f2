package network

import (
	"bytes"
	"testing"

	"mmr/internal/flit"
	"mmr/internal/sched"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// buildDense is perfbench's fabric_dense on FatTree(k) — k = 16 there, 4 at
// toy size: every edge host filled to 0.6 of its link by sessions at the
// paper's rates to random other edge routers, plus one light best-effort flow
// per host.
func buildDense(t *testing.T, k int, noIdleSkip bool) *Network {
	t.Helper()
	tp, err := topology.FatTree(k)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.NoIdleSkip = noIdleSkip
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var edges []int
	for p := 0; p < k; p++ {
		for i := 0; i < k/2; i++ {
			edges = append(edges, p*k+i)
		}
	}
	rng := sim.NewRNG(1)
	other := func(self int) int {
		for {
			if d := edges[rng.Intn(len(edges))]; d != self {
				return d
			}
		}
	}
	target, smallest := 0.6*float64(cfg.Link.Bandwidth), float64(traffic.PaperRates[0])
	var reqs []OpenReq
	for _, src := range edges {
		for sum := 0.0; sum+smallest <= target; {
			spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.PaperRates[rng.Intn(len(traffic.PaperRates))]}
			if rng.Float64() < 0.3 {
				spec.Class, spec.PeakRate, spec.Priority = flit.ClassVBR, 3*spec.Rate, rng.Intn(4)
			}
			if sum+float64(spec.Rate) <= target {
				reqs = append(reqs, OpenReq{Src: src, Dst: other(src), Spec: spec})
				sum += float64(spec.Rate)
			}
		}
	}
	n.OpenBatch(reqs) // a host port's 64 VCs run out before 0.6 of the link does: refusals are part of the workload
	for _, src := range edges {
		if _, err := n.AddBestEffortFlow(src, other(src), 0.02); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// fabricWork is a fabric's work ledger: every node's Core.Work summed, the
// routing units' rows, and the node-cycles stepCountingBusy counted.
type fabricWork struct {
	sched.Work
	NodeCycles, RouteVisited, RouteTried int64
}

func workOf(n *Network, nodeCycles int64) fabricWork {
	w := fabricWork{NodeCycles: nodeCycles}
	for _, nd := range n.nodes {
		c := nd.Core.Work
		w.PortsScanned += c.PortsScanned
		w.VCsVisited += c.VCsVisited
		w.PriorityEvals += c.PriorityEvals
		w.Candidates += c.Candidates
		w.Grants += c.Grants
		w.RouteVisited += nd.routeVisited
		w.RouteTried += nd.routeTried
	}
	return w
}

// stepCountingBusy is Network.cycle spelled out again (as stepReversed is)
// so that, between the deliver and the schedule pass, it can count by scan —
// not from the Busy vectors — the ports that buffer a flit at the nodes about
// to be scheduled: what a gated schedule pass should poll, and no more. It
// also returns the number of nodes it ran.
func stepCountingBusy(n *Network) (busyPorts, nodeCycles int64) {
	t := n.now
	n.events.Run(simTime(t))
	list := n.nodes
	if !n.cfg.NoIdleSkip {
		n.buildActive(t)
		list = n.active
	}
	for _, nd := range list {
		n.phaseDeliver(nd, t)
	}
	for _, nd := range list {
		for _, mem := range nd.Mems {
			if mem.Occupied() > 0 {
				busyPorts++
			}
		}
	}
	for _, nd := range list {
		n.phaseSchedule(nd, t)
	}
	for _, nd := range list {
		n.phaseCommit(nd, t)
	}
	if !n.cfg.NoIdleSkip {
		n.settle(t)
	}
	n.now++
	n.m.cycles++
	return busyPorts, int64(len(list))
}

// TestDenseWorkGolden pins the work ledger of the dense toy fabric: the
// exact counts of what 1000 loaded cycles made the scheduling stages do, so
// work per node-cycle or per delivered flit cannot grow unseen on any host.
// It also holds the gated schedule pass to its worklist — it polls exactly
// the ports that buffer a flit — and the reference to polling every port,
// with the two fabrics byte-equal at the end.
func TestDenseWorkGolden(t *testing.T) {
	const cycles = 1000
	gated, all := buildDense(t, 4, false), buildDense(t, 4, true)
	var busyPorts, gatedCycles, allCycles int64
	for i := 0; i < cycles; i++ {
		b, c := stepCountingBusy(gated)
		busyPorts, gatedCycles = busyPorts+b, gatedCycles+c
		_, c = stepCountingBusy(all)
		allCycles += c
	}
	gs, err := gated.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if as, err := all.EncodeState(); err != nil || !bytes.Equal(gs, as) {
		t.Fatalf("gated and NoIdleSkip dense fabrics diverged (err %v)", err)
	}
	if err := gated.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	gw, aw := workOf(gated, gatedCycles), workOf(all, allCycles)
	if gw.PortsScanned != busyPorts {
		t.Errorf("gated schedule pass polled %d ports; %d buffered a flit", gw.PortsScanned, busyPorts)
	}
	radix, nodes := int64(gated.cfg.radix()), int64(len(gated.nodes))
	if aw.NodeCycles != nodes*cycles || aw.PortsScanned != radix*aw.NodeCycles {
		t.Errorf("NoIdleSkip ran %d node-cycles and polled %d ports; want %d and %d",
			aw.NodeCycles, aw.PortsScanned, nodes*cycles, radix*nodes*cycles)
	}
	// Everything but the polls is the same work either way: an idle port's
	// scheduler visits no VC, and the routing unit's worklist is the same.
	gw.PortsScanned, gw.NodeCycles, aw.PortsScanned, aw.NodeCycles = 0, 0, 0, 0
	gw.RouteTried, aw.RouteTried = 0, 0 // the reference has no stuck memo
	if gw != aw {
		t.Errorf("work differs beyond the polls:\ngated      %+v\nNoIdleSkip %+v", gw, aw)
	}

	w, flits := workOf(gated, gatedCycles), logWork(t, gated, gatedCycles)
	want := fabricWork{
		Work:       sched.Work{PortsScanned: 32945, VCsVisited: 85185, PriorityEvals: 66483, Candidates: 38050, Grants: 28891},
		NodeCycles: 13964, RouteVisited: 456, RouteTried: 456,
	}
	const wantFlits = 5939
	if w != want || flits != wantFlits {
		t.Errorf("work ledger moved:\ngot  %+v, %d flits delivered\nwant %+v, %d", w, flits, want, wantFlits)
	}
}

// TestDenseWorkFullSize runs the gated fabric at fabric_dense's own size
// over the cycles perfbench times (a 300-cycle warm-up, then 640) and holds
// the schedule pass to polling exactly the ports that buffer a flit there
// too; its log is where the full-size counts per node-cycle come from.
func TestDenseWorkFullSize(t *testing.T) {
	if testing.Short() {
		t.Skip("FatTree(16) under load is slow under -short")
	}
	n := buildDense(t, 16, false)
	var busyPorts, nodeCycles int64
	for i := 0; i < 940; i++ {
		b, c := stepCountingBusy(n)
		busyPorts, nodeCycles = busyPorts+b, nodeCycles+c
	}
	if w := workOf(n, nodeCycles); w.PortsScanned != busyPorts {
		t.Errorf("gated schedule pass polled %d ports; %d buffered a flit", w.PortsScanned, busyPorts)
	}
	logWork(t, n, nodeCycles)
}

// logWork logs n's work ledger per node-cycle and per delivered flit, and
// returns the flits delivered.
func logWork(t *testing.T, n *Network, nodeCycles int64) int64 {
	st, w := n.Stats(), workOf(n, nodeCycles)
	flits := st.FlitsDelivered + st.BEDelivered
	t.Logf("%d node-cycles, %d flits delivered; per node-cycle: %.2f ports polled, %.2f VC records, %.2f priorities, %.2f candidates, %.2f grants, %.3f unrouted looked at, %.3f tried",
		w.NodeCycles, flits, per(w.PortsScanned, w.NodeCycles), per(w.VCsVisited, w.NodeCycles), per(w.PriorityEvals, w.NodeCycles),
		per(w.Candidates, w.NodeCycles), per(w.Grants, w.NodeCycles), per(w.RouteVisited, w.NodeCycles), per(w.RouteTried, w.NodeCycles))
	t.Logf("per delivered flit: %.2f ports polled, %.2f VC records, %.2f priorities, %.2f candidates, %.2f grants",
		per(w.PortsScanned, flits), per(w.VCsVisited, flits), per(w.PriorityEvals, flits), per(w.Candidates, flits), per(w.Grants, flits))
	return flits
}

func per(count, base int64) float64 { return float64(count) / float64(base) }
