package network

import (
	"bytes"
	"math"
	"testing"

	"mmr/internal/flit"
	"mmr/internal/sched"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// fatTreeFabric builds FatTree(k) with the shipped defaults and returns, for
// the work-ledger workloads below, the edge routers of its first pods, the
// workload RNG and a draw of another edge router than self.
func fatTreeFabric(t *testing.T, k, pods int, noIdleSkip bool) (n *Network, edges []int, rng *sim.RNG, other func(self int) int) {
	t.Helper()
	var err error
	if n, err = New(fatTreeConfig(t, k, noIdleSkip)); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pods; p++ {
		for i := 0; i < k/2; i++ {
			edges = append(edges, p*k+i)
		}
	}
	rng = sim.NewRNG(1)
	return n, edges, rng, func(self int) int {
		for {
			if d := edges[rng.Intn(len(edges))]; d != self {
				return d
			}
		}
	}
}

// fatTreeConfig is the default configuration on FatTree(k), the one
// fatTreeFabric builds, so a test can build the same fabric afresh (a
// checkpoint restores into one).
func fatTreeConfig(t *testing.T, k int, noIdleSkip bool) Config {
	t.Helper()
	tp, err := topology.FatTree(k)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.NoIdleSkip = noIdleSkip
	return cfg
}

// queuedBehindFull counts the live sessions of n whose interface queues a
// flit while their entry VC is full: the state in which only the pop that
// frees a slot refills the VC under gating (Core.Feed at departure), so a
// twin suite that never reaches it cannot see that refill.
func queuedBehindFull(n *Network) int {
	k := 0
	for _, nd := range n.nodes {
		for _, s := range nd.srcConns {
			if !s.closed && !s.broken && s.ni.Queue.Len() > 0 && nd.Mems[s.VCs[0].Port].Free(s.VCs[0].VC) == 0 {
				k++
			}
		}
	}
	return k
}

// buildDense is perfbench's fabric_dense on FatTree(k) — k = 16 there, 4 at
// toy size: every edge host filled to 0.6 of its link by sessions at the
// paper's rates to random other edge routers, plus one light best-effort flow
// per host.
func buildDense(t *testing.T, k int, noIdleSkip bool) *Network {
	t.Helper()
	n, edges, rng, other := fatTreeFabric(t, k, k, noIdleSkip)
	target, smallest := 0.6*float64(n.cfg.Link.Bandwidth), float64(traffic.PaperRates[0])
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
		w.Enqueued += c.Enqueued
		w.RouteVisited += nd.routeVisited
		w.RouteTried += nd.routeTried
	}
	return w
}

// stepCounting is Network.cycle spelled out again (as stepReversed is) so
// that it can count by scan — not from the vectors the gated passes walk —
// what those passes should poll, and no more: before the deliver pass the
// inbound lane pairs of the nodes about to run that hold an entry, and
// between the deliver and the schedule pass their ports that buffer a flit.
// It also returns the number of nodes it ran.
func stepCounting(n *Network) (heldLanes, busyPorts, nodeCycles int64) {
	t := n.now
	n.events.Run(simTime(t))
	list := n.nodes
	if !n.cfg.NoIdleSkip {
		n.buildActive(t)
		list = n.active
	}
	for _, nd := range list {
		for _, e := range nd.in {
			if w := &n.wires[e.lane]; len(w.credits.Pending())+len(w.flits.Pending()) > 0 {
				heldLanes++
			}
		}
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
	n.m.Cycles++
	return heldLanes, busyPorts, int64(len(list))
}

func stepCountingBusy(n *Network) (busyPorts, nodeCycles int64) {
	_, busyPorts, nodeCycles = stepCounting(n)
	return busyPorts, nodeCycles
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
		Work:       sched.Work{PortsScanned: 32945, VCsVisited: 79174, PriorityEvals: 66483, Candidates: 38050, Grants: 28891, Enqueued: 29029},
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

// buildSparse is perfbench's fabric_sparse on FatTree(k) — k = 16 with 512
// sessions in 4 pods there, 4 with 24 in one pod at toy size: sessions at the
// three slowest paper rates, in rotation, between the edge routers of the
// first pods only, plus one trickle of best-effort packets per such pod.
func buildSparse(t *testing.T, k, pods, sessions int, noIdleSkip bool) *Network {
	t.Helper()
	n, edges, rng, other := fatTreeFabric(t, k, pods, noIdleSkip)
	var reqs []OpenReq
	for len(reqs) < sessions {
		src := edges[rng.Intn(len(edges))]
		reqs = append(reqs, OpenReq{Src: src, Dst: other(src),
			Spec: traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.PaperRates[len(reqs)%3]}})
	}
	for _, r := range n.OpenBatch(reqs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	for p := 0; p < pods; p++ {
		if _, err := n.AddBestEffortFlow(p*k, other(p*k), 0.0005); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// sparseWork is the ledger of the sparse shape: fabricWork's rows and the two
// the idle side of the cycle adds — inbound lane pairs the deliver passes
// polled, wake-table words buildActive read.
type sparseWork struct {
	fabricWork
	LanesPolled, WakeReads int64
}

// runSparse zeroes n's work ledger, steps it and returns the ledger beside
// what stepCounting's scans say LanesPolled and PortsScanned should be.
func runSparse(n *Network, cycles int) (w sparseWork, heldLanes, busyPorts int64) {
	n.wakeReads = 0
	for _, nd := range n.nodes {
		nd.Core.Work, nd.routeVisited, nd.routeTried, nd.lanesPolled = sched.Work{}, 0, 0, 0
	}
	var nodeCycles int64
	for i := 0; i < cycles; i++ {
		h, b, c := stepCounting(n)
		heldLanes, busyPorts, nodeCycles = heldLanes+h, busyPorts+b, nodeCycles+c
	}
	w.fabricWork, w.WakeReads = workOf(n, nodeCycles), n.wakeReads
	for _, nd := range n.nodes {
		w.LanesPolled += nd.lanesPolled
	}
	return w, heldLanes, busyPorts
}

// TestSparseWorkGolden is TestDenseWorkGolden's sparse twin: slow sessions
// in one pod of the toy fat tree, most node-cycles idle. After one cycle —
// a fabric fresh from New looks at every lane once — it holds the gated
// passes to their worklists over 20,000 cycles: the deliver pass polls
// exactly the lane pairs that held an entry when it began and the schedule
// pass the ports that buffer a flit, while the reference polls every wired
// lane pair and every port of every node and reads no wake table; the two
// fabrics end byte-equal, and the gated counts are pinned.
func TestSparseWorkGolden(t *testing.T) {
	const cycles = 20000
	gated, all := buildSparse(t, 4, 1, 24, false), buildSparse(t, 4, 1, 24, true)
	stepCounting(gated)
	stepCounting(all)
	gw, heldLanes, busyPorts := runSparse(gated, cycles)
	aw, _, _ := runSparse(all, cycles)
	gs, err := gated.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if as, err := all.EncodeState(); err != nil || !bytes.Equal(gs, as) {
		t.Fatalf("gated and NoIdleSkip sparse fabrics diverged (err %v)", err)
	}
	if err := gated.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	if gw.LanesPolled != heldLanes || gw.PortsScanned != busyPorts {
		t.Errorf("gated passes polled %d lane pairs and %d ports; %d held an entry and %d buffered a flit",
			gw.LanesPolled, gw.PortsScanned, heldLanes, busyPorts)
	}
	wired := int64(0)
	for _, nd := range all.nodes {
		wired += int64(len(nd.in))
	}
	radix, nodes := int64(all.cfg.radix()), int64(len(all.nodes))
	if aw.NodeCycles != nodes*cycles || aw.LanesPolled != wired*cycles || aw.PortsScanned != radix*aw.NodeCycles || aw.WakeReads != 0 {
		t.Errorf("NoIdleSkip ran %d node-cycles, polled %d lane pairs and %d ports and read %d wake words; want %d, %d, %d and 0",
			aw.NodeCycles, aw.LanesPolled, aw.PortsScanned, aw.WakeReads, nodes*cycles, wired*cycles, radix*nodes*cycles)
	}
	if aw.Grants != gw.Grants || aw.Enqueued != gw.Enqueued || aw.VCsVisited != gw.VCsVisited || aw.Candidates != gw.Candidates {
		t.Errorf("work differs beyond the polls:\ngated      %+v\nNoIdleSkip %+v", gw, aw)
	}

	st := gated.Stats()
	flits := st.FlitsDelivered + st.BEDelivered
	t.Logf("%d cycles, %d node-cycles, %d flits delivered; per node-cycle: %.2f lane pairs polled (NoIdleSkip %.2f), %.2f ports polled (NoIdleSkip %d); per cycle: %.2f wake words read of %d",
		cycles, gw.NodeCycles, flits, per(gw.LanesPolled, gw.NodeCycles), per(aw.LanesPolled, aw.NodeCycles),
		per(gw.PortsScanned, gw.NodeCycles), radix, per(gw.WakeReads, cycles), len(gated.wakeAt)+len(gated.blockAt))
	want := sparseWork{
		fabricWork: fabricWork{
			Work:       sched.Work{PortsScanned: 723, VCsVisited: 728, PriorityEvals: 728, Candidates: 723, Grants: 723, Enqueued: 723},
			NodeCycles: 1424, RouteVisited: 48, RouteTried: 48,
		},
		LanesPolled: 931, WakeReads: 57792,
	}
	const wantFlits = 241
	if gw != want || flits != wantFlits {
		t.Errorf("work ledger moved:\ngot  %+v, %d flits delivered\nwant %+v, %d", gw, flits, want, wantFlits)
	}
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

// TestGatingFlipMidTraffic: the engines can change places in mid-run. A
// fabric that runs gated, then under NoIdleSkip, then gated again — every
// node touched on the way back, since the reference kept neither the wake
// table nor the calendars — stays byte-equal to a twin that never flipped,
// on the loaded fabric and on the one that is mostly asleep. The inbound
// vectors are kept by both engines (notePush): the audit at the end of a
// NoIdleSkip leg, entered without a touch, holds them to the lanes.
func TestGatingFlipMidTraffic(t *testing.T) {
	for _, fab := range []struct {
		name  string
		build func() *Network
	}{
		{"dense", func() *Network { return buildDense(t, 4, false) }},
		{"sparse", func() *Network { return buildSparse(t, 4, 1, 24, false) }},
	} {
		t.Run(fab.name, func(t *testing.T) {
			flipped, twin := fab.build(), fab.build()
			for _, leg := range []struct {
				cycles     int64
				noIdleSkip bool
			}{{1300, false}, {700, true}, {1100, false}, {450, true}, {1450, false}} {
				flipped.cfg.NoIdleSkip = leg.noIdleSkip
				for id := 0; !leg.noIdleSkip && id < len(flipped.nodes); id++ {
					flipped.touch(id)
				}
				flipped.Run(leg.cycles)
				twin.Run(leg.cycles)
				if err := flipped.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			fb, err := flipped.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			if tb, err := twin.EncodeState(); err != nil || !bytes.Equal(fb, tb) {
				t.Fatalf("a fabric that changed engines in mid-run diverged from its twin (err %v)", err)
			}
			if st := twin.Stats(); st.FlitsDelivered == 0 {
				t.Fatalf("degenerate scenario: %+v", st)
			}
		})
	}
}

// TestChurnWorkGolden pins the work ledger of the control plane's shape on the
// toy fat tree: 120 attempted opens at the paper's three fastest rates
// between the edge routers, beside one best-effort flow, ten drained closes,
// one bandwidth change, one link failed on a path and restored, twelve more
// opens, and a checkpoint restored into a fresh fabric
// that runs on. The summed Core.Work rows and routing-unit rows of the fabric
// before the checkpoint and of the restored one after it, the flits delivered
// and the setup backtracks are exact counts, so establishment, teardown,
// fault handling or restore that does more work, or different work, moves
// them on any host.
func TestChurnWorkGolden(t *testing.T) {
	n, edges, rng, other := fatTreeFabric(t, 4, 4, false)
	var conns []*Conn
	open := func(k int) {
		for i := 0; i < k; i++ {
			src := edges[rng.Intn(len(edges))]
			spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.PaperRates[6+rng.Intn(3)]}
			if rng.Intn(4) == 0 {
				spec.Class, spec.PeakRate = flit.ClassVBR, 2*spec.Rate
			}
			if c, err := n.Open(src, other(src), spec); err == nil {
				conns = append(conns, c)
			}
		}
	}
	open(120)
	if _, err := n.AddBestEffortFlow(edges[0], edges[len(edges)-1], 0.01); err != nil {
		t.Fatal(err)
	}
	n.Run(1500)
	for _, c := range conns[:10] {
		if err := n.DrainAndClose(c, 4000); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.ModifyBandwidth(conns[12], traffic.PaperRates[7]); err != nil {
		t.Fatal(err)
	}
	n.Run(500)
	hop := conns[14].Path[0]
	if err := n.FailLink(hop.Node, hop.Port); err != nil {
		t.Fatal(err)
	}
	n.Run(1000)
	if err := n.RestoreLink(hop.Node, hop.Port); err != nil {
		t.Fatal(err)
	}
	n.Run(1000)
	open(12)
	n.Run(500)
	before := workOf(n, 0)

	blob, err := n.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(DefaultConfig(tp))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	m.Run(1500)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	after := workOf(m, 0)
	st := m.Stats()
	flits, opened := st.FlitsDelivered+st.BEDelivered, len(conns)
	if st.ConnsBroken == 0 || st.Closed != 10 {
		t.Fatalf("degenerate script: %d sessions broken by the fault, %d closed", st.ConnsBroken, st.Closed)
	}
	backtracks := [2]int64{st.SetupBacktracks.N(), int64(math.Round(st.SetupBacktracks.Mean() * float64(st.SetupBacktracks.N())))}
	t.Logf("%d sessions opened, %d broken by the fault; %d flits delivered, setup backtracks %v (count, sum)\nbefore the checkpoint %+v\nafter the restore     %+v",
		opened, st.ConnsBroken, flits, backtracks, before, after)

	// An open refused for lack of an entry VC or of ejection headroom is
	// turned down before it draws an entry or hop VC (preAdmit), so the
	// VCs later sessions hold are the ones that rule picks; the sessions
	// opened, broken and their backtracks are those of a fabric that
	// searched such opens.
	wantBefore := fabricWork{
		Work:         sched.Work{PortsScanned: 301350, VCsVisited: 957416, PriorityEvals: 850161, Candidates: 371319, Grants: 255655, Enqueued: 255980},
		RouteVisited: 450, RouteTried: 450,
	}
	wantAfter := fabricWork{
		Work:         sched.Work{PortsScanned: 57279, VCsVisited: 189836, PriorityEvals: 179173, Candidates: 66100, Grants: 47101, Enqueued: 47154},
		RouteVisited: 50, RouteTried: 50,
	}
	const wantFlits, wantOpened = 64968, 129
	wantBacktracks := [2]int64{129, 5}
	if before != wantBefore || after != wantAfter || flits != wantFlits || opened != wantOpened || backtracks != wantBacktracks {
		t.Errorf("churn work ledger moved:\ngot  before %+v\n     after  %+v\n     %d flits, %d opened, backtracks %v\nwant before %+v\n     after  %+v\n     %d flits, %d opened, backtracks %v",
			before, after, flits, opened, backtracks, wantBefore, wantAfter, wantFlits, wantOpened, wantBacktracks)
	}
}

// TestRouteMemoSkipsBlockedRetries holds the routing unit's memo to what it
// is for: a router kept awake by sessions passing through does not route
// its blocked packets again every cycle, only after a VC frees toward it.
// Three routers in a line; sessions from router 1 fill router 2's input
// port from router 1, so packets from router 0 to router 2 wait in router
// 1, which injects a flit every few cycles. The gated fabric must try far
// fewer of its unrouted packets than it visits, and stay byte-equal to its
// NoIdleSkip twin, which tries every one every cycle.
func TestRouteMemoSkipsBlockedRetries(t *testing.T) {
	const vcs, cycles = 4, 3000
	var nets [2]*Network
	for i, noIdleSkip := range []bool{false, true} {
		tp, err := topology.Mesh(3, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(tp)
		cfg.VCs = vcs
		cfg.NoIdleSkip = noIdleSkip
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < vcs; s++ {
			if _, err := n.Open(1, 2, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 20 * traffic.Mbps}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := n.AddBestEffortFlow(0, 2, 0.01); err != nil {
			t.Fatal(err)
		}
		n.Run(cycles)
		nets[i] = n
	}
	gated, all := nets[0], nets[1]
	gb, err := gated.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if ab, err := all.EncodeState(); err != nil || !bytes.Equal(gb, ab) {
		t.Fatalf("gated and NoIdleSkip fabrics diverged (err %v)", err)
	}
	nd := gated.nodes[1]
	if nd.blocked == 0 || nd.routeVisited < cycles/2 {
		t.Fatalf("degenerate scenario: %d packet flits blocked in router 1, %d unrouted visits", nd.blocked, nd.routeVisited)
	}
	if nd.routeTried*10 > nd.routeVisited {
		t.Errorf("router 1 tried %d of the %d unrouted packets it visited; the memo should spare most retries", nd.routeTried, nd.routeVisited)
	}
	t.Logf("router 1: %d unrouted visits, %d tried; NoIdleSkip tried %d", nd.routeVisited, nd.routeTried, all.nodes[1].routeTried)
}
