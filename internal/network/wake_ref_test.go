package network

import (
	"bytes"
	"fmt"
	"testing"

	"mmr/internal/faults"
	"mmr/internal/flit"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// wake_ref_test.go keeps the scanning predicates the wake table replaced
// as the oracle it is held to: referenceNodeActive is the per-node
// activity scan buildActive used to run over every node every cycle, and
// referenceNextWake the lane-and-session minimum nextWake used to take.
// They read nothing the wake table writes.

// referenceBuffered scans nd's VC memories: movable reports a buffered
// flit that can do something this cycle, unrouted a packet that cannot
// because no legal next router has a free VC on the port it would enter
// by (the routing unit's own test, spelled out again). Everything else
// buffered — stream flits, routed packets, packets for the local host —
// counts as movable, as any buffered flit did before blocked packets
// were let sleep, and so does every packet while links are impaired.
func (n *Network) referenceBuffered(nd *node) (movable, unrouted bool) {
	tp := n.cfg.Topology
	for _, mem := range nd.Mems {
		for vc := 0; mem.Materialized() && vc < mem.NumVCs(); vc++ { // a port without records buffers nothing
			if mem.Len(vc) == 0 {
				continue
			}
			st, head := mem.State(vc), mem.Peek(vc)
			if len(n.impair) > 0 || st.Class != flit.ClassBestEffort || st.Output >= 0 || int(head.Dst) == nd.id {
				movable = true
				continue
			}
			free := false
			for _, q := range n.ud.NextPorts(nd.id, int(head.Dst), head.WentDown, nil) {
				if n.nodes[tp.Neighbor(nd.id, q)].Mems[tp.PeerPort(nd.id, q)].FreeVCs() > 0 {
					free = true
				}
			}
			if free {
				movable = true
			} else {
				unrouted = true
			}
		}
	}
	return movable, unrouted
}

// referenceNodeActive reports whether node nd has anything to do at cycle
// t: a buffered flit that can move, a matured flit or credit on an
// inbound staging lane, or a stream source or best-effort flow homed on
// it that is due or has a backlog queued at its network interface.
func (n *Network) referenceNodeActive(nd *node, t int64) bool {
	if movable, _ := n.referenceBuffered(nd); movable {
		return true
	}
	for i := range nd.in {
		w := &n.wires[nd.in[i].lane]
		if w.credits.NextAt() <= t || w.flits.NextAt() <= t {
			return true
		}
	}
	for _, c := range nd.srcConns {
		if c.closed || c.broken {
			continue
		}
		if c.ni.Queue.Len() > 0 {
			return true
		}
		if c.open && c.ni.Source != nil && c.ni.NextDue <= t {
			return true
		}
	}
	for _, bf := range nd.beSrc {
		if bf.ni.Queue.Len() > 0 || bf.ni.NextDue <= t {
			return true
		}
	}
	return false
}

// referenceNextWake returns the earliest cycle in (t, limit] at which
// anything can happen — the next session event, the earliest staged lane
// entry maturing, the earliest due traffic source — given that nothing is
// active at t.
func (n *Network) referenceNextWake(t, limit int64) int64 {
	next := limit
	if at, ok := n.events.NextAt(); ok && int64(at) < next {
		next = int64(at)
	}
	for i := range n.wires {
		if la := n.wires[i].flits.NextAt(); la < next {
			next = la
		}
		if la := n.wires[i].credits.NextAt(); la < next {
			next = la
		}
	}
	for _, nd := range n.nodes {
		for _, c := range nd.srcConns {
			if !c.closed && !c.broken && c.open && c.ni.Source != nil && c.ni.NextDue < next {
				next = c.ni.NextDue
			}
		}
		for _, bf := range nd.beSrc {
			if bf.ni.NextDue < next {
				next = bf.ni.NextDue
			}
		}
	}
	if next <= t {
		next = t + 1
	}
	return next
}

// checkWakeTable holds the wake table, between two cycles, to the scans:
// the nodes due now are exactly the nodes the activity scan finds, and —
// when nothing is active, the only time it is asked — nextWake agrees
// with the scanned wake-up. One
// early wake is allowed: a node holding unroutable packets is woken by
// any VC released toward it and by any fault transition, whether or not
// that helps the packets it holds. The second level must bound the first:
// no block's blockAt above any of its entries. It reports whether the
// fabric was idle.
func checkWakeTable(t testing.TB, n *Network) (idle bool) {
	t.Helper()
	now := n.now
	idle = true
	early := false
	for id, at := range n.wakeAt {
		if b := n.blockAt[id/wakeBlock]; b > at {
			t.Fatalf("cycle %d node %d: wakeAt %d lies under its block's bound %d", now, id, at, b)
		}
	}
	for _, nd := range n.nodes {
		want := n.referenceNodeActive(nd, now)
		if got := n.wakeAt[nd.id] <= now; got != want {
			if _, unrouted := n.referenceBuffered(nd); want || !unrouted {
				t.Fatalf("cycle %d node %d: wakeAt %d says active=%v, the scan says %v", now, nd.id, n.wakeAt[nd.id], got, want)
			}
			early = true
		}
		if want {
			idle = false
		}
	}
	if idle {
		const ahead = 1 << 20
		if got, want := n.nextWake(now, now+ahead), n.referenceNextWake(now, now+ahead); got != want && !(early && got == now+1) {
			t.Fatalf("cycle %d: nextWake %d, the scan says %d", now, got, want)
		}
	}
	return idle
}

// wakeFabric is one fabric shape of the matrix; build makes a fresh
// topology each call (link state lives in the topology, so a restore
// target needs its own).
type wakeFabric struct {
	name  string
	build func() (*topology.Topology, error)
}

var wakeFabrics = []wakeFabric{
	{"mesh", func() (*topology.Topology, error) { return topology.Mesh(4, 4, 4) }},
	{"fattree", func() (*topology.Topology, error) { return topology.FatTree(4) }},
	{"dragonfly", func() (*topology.Topology, error) { return topology.Dragonfly(4, 2, 3) }},
}

// wakeRun is a fabric being stepped under checkWakeTable.
type wakeRun struct {
	t     testing.TB
	fab   wakeFabric
	cfg   Config // Topology is replaced on every (re)build
	n     *Network
	rng   *sim.RNG
	open  []*Conn
	flows []FlowID
	idle  int // checks that found the whole fabric idle
}

func newWakeRun(t testing.TB, fab wakeFabric, linkDelay int64, seed uint64) *wakeRun {
	r := &wakeRun{t: t, fab: fab, rng: sim.NewRNG(seed ^ 0xfab)}
	r.cfg = DefaultConfig(nil)
	r.cfg.VCs = 8
	r.cfg.Seed = seed
	r.cfg.LinkDelay = linkDelay
	// One retry, then degrade: a session whose router fails ends up on a
	// best-effort fallback and is promoted back when the router returns.
	r.cfg.Fault = FaultPolicy{Restore: true, MaxRetries: 1, RetryBackoff: 8, Degrade: true, Promote: true, Paranoid: true}
	r.n = r.fresh()
	return r
}

func (r *wakeRun) fresh() *Network {
	tp, err := r.fab.build()
	if err != nil {
		r.t.Fatal(err)
	}
	cfg := r.cfg
	cfg.Topology = tp
	n, err := New(cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	return n
}

func (r *wakeRun) endpoints() (src, dst int) {
	nodes := r.n.Nodes()
	for {
		if src, dst = r.rng.Intn(nodes), r.rng.Intn(nodes); src != dst {
			return
		}
	}
}

// step advances one cycle — or, with run > 1, that many through Run, so
// the fast-forward maintains the table too — and checks.
func (r *wakeRun) step(run int64) {
	if run > 1 {
		r.n.Run(run)
	} else {
		r.n.Step()
	}
	if checkWakeTable(r.t, r.n) {
		r.idle++
	}
}

// slowRates are the paper rates a flit of which is hundreds of cycles
// apart: sessions at them leave the fabric idle between arrivals.
var slowRates = traffic.PaperRates[:3]

// Churn operations. Each is a control-plane call between two cycles; the
// check that follows the next cycle is what holds its touch to account.
func (r *wakeRun) opOpen(slow bool) {
	src, dst := r.endpoints()
	spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.PaperRates[r.rng.Intn(len(traffic.PaperRates))]}
	if slow {
		spec.Rate = slowRates[r.rng.Intn(len(slowRates))]
	} else if r.rng.Intn(3) == 0 {
		spec.Class, spec.PeakRate = flit.ClassVBR, 2*spec.Rate
	}
	if c, err := r.n.Open(src, dst, spec); err == nil {
		r.open = append(r.open, c)
	}
}

func (r *wakeRun) pick() (int, *Conn) {
	for tries := 0; tries < 8 && len(r.open) > 0; tries++ {
		i := r.rng.Intn(len(r.open))
		if c := r.open[i]; c.Open() && !c.Degraded {
			return i, c
		}
	}
	return -1, nil
}

func (r *wakeRun) opClose() {
	if i, c := r.pick(); c != nil {
		// DrainAndClose steps the fabric itself; a failure (the drain
		// limit, a fault mid-drain) leaves the session where it is.
		if r.n.DrainAndClose(c, 400) == nil {
			r.open = append(r.open[:i], r.open[i+1:]...)
		}
	}
}

func (r *wakeRun) opModify(slow bool) {
	rates := traffic.PaperRates
	if slow {
		rates = slowRates
	}
	if _, c := r.pick(); c != nil && c.Spec.Class == flit.ClassCBR {
		r.n.ModifyBandwidth(c, rates[r.rng.Intn(len(rates))])
	}
}

func (r *wakeRun) opFlow() {
	if len(r.flows) > 2 {
		if err := r.n.CloseFlow(r.flows[0]); err != nil {
			r.t.Fatal(err)
		}
		r.flows = r.flows[1:]
		return
	}
	src, dst := r.endpoints()
	id, err := r.n.AddBestEffortFlow(src, dst, 0.01)
	if err != nil {
		r.t.Fatal(err)
	}
	r.flows = append(r.flows, id)
}

// opRestore checkpoints the fabric and carries on in a fresh one restored
// from the payload: the wake table and the calendars are not in it and
// must rebuild themselves.
func (r *wakeRun) opRestore() {
	blob, err := r.n.EncodeState()
	if err != nil {
		r.t.Fatal(err)
	}
	fresh := r.fresh()
	if err := fresh.RestoreState(blob); err != nil {
		r.t.Fatal(err)
	}
	again, err := fresh.EncodeState()
	if err != nil || !bytes.Equal(blob, again) {
		r.t.Fatalf("restored fabric encodes differently (err %v)", err)
	}
	old := r.open
	r.open = r.open[:0]
	for _, c := range old {
		r.open = append(r.open, fresh.conns[c.ID])
	}
	r.n = fresh
}

// script runs the fixed churn scenario: bring-up, then 3,000 cycles with a
// control-plane operation every 40 or so, among them a router outage long
// enough to degrade the sessions through it and a repair that promotes
// them back, and a checkpoint → restore into a fresh fabric mid-run. At
// cycle 2,000 the fast sessions are closed, so the tail is the sparse
// regime: most nodes asleep, the whole fabric idle between arrivals.
func (r *wakeRun) script(withFaults bool) {
	for i := 0; i < 24; i++ {
		r.opOpen(i%3 == 0)
	}
	r.opFlow()
	if withFaults {
		tp := r.n.cfg.Topology
		l := tp.Links[len(tp.Links)/2]
		plan := faults.NewPlan(3).
			FailRouterAt(700, tp.Nodes/2).
			RestoreRouterAt(1500, tp.Nodes/2).
			FailLinkAt(300, l.A, l.APort).
			RestoreLinkAt(1100, l.A, l.APort)
		// Impair links that carry traffic: the first hop of some sessions.
		for _, c := range r.open[:min(6, len(r.open))] {
			plan.Impair(c.Path[0].Node, c.Path[0].Port, 0.1, 0.02)
		}
		if err := r.n.ApplyPlan(plan, 3000); err != nil {
			r.t.Fatal(err)
		}
	}
	// One-shot operations, each at the first cycle boundary at or after its
	// mark (a Run burst may step over the mark itself).
	victim := -1
	sparse := false
	marks := []struct {
		at int64
		do func()
	}{
		{900, func() {
			// Degrade → promote: take down the router a live session
			// starts at; with one retry it degrades long before the repair.
			if _, c := r.pick(); c != nil {
				victim = c.Src
				if err := r.n.FailRouter(victim); err != nil {
					r.t.Fatal(err)
				}
			}
		}},
		{1300, func() {
			if victim >= 0 {
				if err := r.n.RestoreRouter(victim); err != nil {
					r.t.Fatal(err)
				}
			}
		}},
		{1700, r.opRestore},
		{2000, func() {
			sparse = true
			for _, c := range append([]*Conn(nil), r.open...) {
				if c.Open() && c.Spec.Rate > slowRates[len(slowRates)-1] {
					r.n.DrainAndClose(c, 400)
				}
			}
			for _, id := range r.flows {
				if err := r.n.CloseFlow(id); err != nil {
					r.t.Fatal(err)
				}
			}
			r.flows = nil
		}},
	}
	for r.n.now < 3000 {
		now := r.n.now
		switch {
		case len(marks) > 0 && now >= marks[0].at:
			marks[0].do()
			marks = marks[1:]
		case now%40 == 7:
			switch r.rng.Intn(5) {
			case 0:
				r.opOpen(true)
			case 1:
				r.opOpen(sparse)
			case 2:
				r.opClose()
			case 3:
				r.opModify(sparse)
			case 4:
				if !sparse {
					r.opFlow()
				}
			}
		}
		run := int64(1)
		if now%97 == 50 {
			run = 1 + int64(r.rng.Intn(60))
		}
		r.step(run)
	}
	st := r.n.Stats()
	if st.FlitsDelivered == 0 || st.ConnsDegraded == 0 || st.ConnsPromoted == 0 {
		r.t.Fatalf("degenerate scenario: delivered %d, degraded %d, promoted %d", st.FlitsDelivered, st.ConnsDegraded, st.ConnsPromoted)
	}
	if withFaults && st.FlitsDropped == 0 {
		r.t.Fatal("degenerate scenario: the impairments dropped nothing")
	}
}

// TestWakeTableMatchesScan steps fabrics through the churn script and
// after every cycle holds the wake table to the scans it replaced
// (checkWakeTable): mesh / fat tree / dragonfly × LinkDelay 0, 1, 3 — at 3
// a node that settles itself can have an entry still in flight towards it
// that it saw unmatured — × {clean, a fault plan with impairments and a
// router failure}. (The w1 in the case names is part of the identifiers
// these cases are tracked by outside the repository.)
func TestWakeTableMatchesScan(t *testing.T) {
	for _, fab := range wakeFabrics {
		for _, delay := range []int64{0, 1, 3} {
			for _, withFaults := range []bool{false, true} {
				name := fmt.Sprintf("%s/delay%d/w1/faults=%v", fab.name, delay, withFaults)
				t.Run(name, func(t *testing.T) {
					r := newWakeRun(t, fab, delay, 17)
					r.script(withFaults)
					if r.idle == 0 {
						t.Fatal("the fabric was never idle at a check: nextWake went uncompared")
					}
				})
			}
		}
	}
}

// FuzzWakeTableMatchesScan drives the same check from FuzzNetworkChurn's
// operation stream — opens, probes, retried opens, teardowns, flows,
// link failures and repairs: after every cycle of its cycle bursts the
// wake table must match the scans.
func FuzzWakeTableMatchesScan(f *testing.F) {
	f.Add(uint64(1), uint8(1), []byte{0, 9, 6, 9, 7, 4})
	f.Add(uint64(7), uint8(3), []byte{2, 9, 3, 6, 9, 6, 9, 7, 7, 4, 4})
	f.Add(uint64(42), uint8(0), []byte{1, 1, 5, 9, 6, 8, 7, 9, 4, 4})
	f.Fuzz(func(t *testing.T, seed uint64, delay uint8, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48] // bound per-case runtime
		}
		ok := churnOps(seed, int64(delay%4), ops, func(n *Network, cycles int64) {
			// A third of each burst through Run, which fast-forwards, the
			// rest cycle by cycle.
			n.Run(cycles / 3)
			checkWakeTable(t, n)
			for i := cycles / 3; i < cycles; i++ {
				n.Step()
				checkWakeTable(t, n)
			}
		})
		if !ok {
			t.Fatal("network invariants violated")
		}
	})
}

// TestEncodeMidGapContinues: EncodeState in the middle of silent gaps
// replays every sleeping source up to the present cycle by cycle, which
// leaves the forecasts' memos behind; a fabric that does so again and
// again and carries on must stay byte-equal to a twin that never encoded.
func TestEncodeMidGapContinues(t *testing.T) {
	build := func() *Network {
		r := newWakeRun(t, wakeFabrics[0], 1, 29)
		for i := 0; i < 12; i++ {
			r.opOpen(i%4 != 3)
		}
		r.opFlow()
		return r.n
	}
	a, b := build(), build()
	slept := 0
	for i := 0; i < 60; i++ {
		a.Run(137)
		b.Run(137)
		for _, c := range a.conns {
			if c.injecting() && c.ni.LastTick < a.now-1 {
				slept++
			}
		}
		if _, err := a.EncodeState(); err != nil {
			t.Fatal(err)
		}
	}
	if slept == 0 {
		t.Fatal("no source was ever mid-gap at an encode: nothing was replayed")
	}
	ab, err := a.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("a fabric that encoded mid-gap diverged from its twin")
	}
	if st := a.Stats(); st.FlitsDelivered == 0 {
		t.Fatalf("degenerate scenario: %+v", st)
	}
}
