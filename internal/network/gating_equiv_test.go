package network

import (
	"bytes"
	"reflect"
	"testing"

	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"

	"mmr/internal/faults"
	"mmr/internal/flit"
)

// gatingScenario runs the detScenario workload with activity gating on or
// off and returns everything observable. NoIdleSkip is flipped after
// construction (it only affects stepping, never setup), so both sides
// build through the identical code path.
func gatingScenario(t *testing.T, withFaults, noIdleSkip bool) (*Stats, []SessionEvent) {
	t.Helper()
	n := buildDetNetwork(t, withFaults)
	n.cfg.NoIdleSkip = noIdleSkip
	n.Run(1200)
	n.ResetStats()
	n.Run(1800)
	return n.Stats(), n.SessionEvents()
}

// TestNetworkGatingEquivalence: activity gating — per-port scan skipping,
// the active-node worklist, lazy round boundaries, forecast-driven source
// ticking and whole-clock fast-forward — changes nothing observable. The
// gated run must reproduce the ungated run bit for bit (floating-point
// accumulator state compared exactly via reflect.DeepEqual), with and
// without an active fault plan.
func TestNetworkGatingEquivalence(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		name := "clean"
		if withFaults {
			name = "faults"
		}
		t.Run(name, func(t *testing.T) {
			refStats, refEvents := gatingScenario(t, withFaults, true)
			if refStats.FlitsDelivered == 0 || refStats.BEDelivered == 0 {
				t.Fatalf("degenerate scenario: %v", refStats)
			}
			st, ev := gatingScenario(t, withFaults, false)
			if !reflect.DeepEqual(refStats, st) {
				t.Errorf("gated run diverged from ungated:\nungated: %+v\ngated:   %+v", refStats, st)
			}
			if !reflect.DeepEqual(refEvents, ev) {
				t.Errorf("gated session log diverged (%d vs %d events)", len(refEvents), len(ev))
			}
		})
	}
}

// TestNetworkGatingEquivalenceSparse exercises the regime gating was
// built for — long idle stretches between arrivals, where Run fast-
// forwards the clock — and checks the elision is exact: identical stats,
// identical final clock, and strictly positive skipping (guarding against
// the fast path silently never engaging).
func TestNetworkGatingEquivalenceSparse(t *testing.T) {
	build := func(noIdleSkip bool) *Network {
		tp, err := topology.Mesh(4, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(tp)
		cfg.Seed = 23
		cfg.NoIdleSkip = noIdleSkip
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(77)
		for opened, i := 0, 0; i < 200 && opened < 6; i++ {
			src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
			if src == dst {
				continue
			}
			// Slow connections: ~1 flit every few hundred cycles, so the
			// fabric is empty most of the time.
			if _, err := n.Open(src, dst, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 2 * traffic.Mbps}); err == nil {
				opened++
			}
		}
		n.AddBestEffortFlow(0, 15, 0.001)
		return n
	}

	gated, ungated := build(false), build(true)
	gated.Run(20_000)
	ungated.Run(20_000)
	if gated.Now() != ungated.Now() {
		t.Fatalf("clocks diverged: gated %d, ungated %d", gated.Now(), ungated.Now())
	}
	gs, us := gated.Stats(), ungated.Stats()
	if us.FlitsDelivered == 0 {
		t.Fatalf("degenerate sparse scenario: %+v", us)
	}
	if !reflect.DeepEqual(gs, us) {
		t.Fatalf("sparse gated run diverged:\nungated: %+v\ngated:   %+v", us, gs)
	}
	if gated.idleSkipped == 0 {
		t.Fatal("sparse run skipped no cycles: the fast-forward path never engaged")
	}
	if ungated.idleSkipped != 0 {
		t.Fatalf("NoIdleSkip run still skipped %d cycles", ungated.idleSkipped)
	}
}

// TestModifyBandwidthGatedSourceCatchUp: renegotiating a CBR session whose
// source node is gated out must first replay, at the old rate, the ticks
// the source slept through. Replaying them at the new rate (the defect)
// makes a checkpoint taken straight afterwards fail — the quiesce replay
// finds a flit due during an elided cycle — and shifts later arrivals
// against an ungated run. The gated fabric must encode to the ungated
// twin's bytes right after the call and agree with it on every statistic
// afterwards.
func TestModifyBandwidthGatedSourceCatchUp(t *testing.T) {
	build := func(noIdleSkip bool) (*Network, *Conn) {
		tp, err := topology.Mesh(4, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(tp)
		cfg.Seed = 23
		cfg.NoIdleSkip = noIdleSkip
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// One slow session (a flit every few hundred cycles) on an
		// otherwise empty fabric: its source node sleeps between arrivals.
		c, err := n.Open(0, 15, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 2 * traffic.Mbps})
		if err != nil {
			t.Fatal(err)
		}
		return n, c
	}
	gated, gc := build(false)
	ungated, uc := build(true)

	// Stop between two arrivals, far enough after the first that the
	// fabric has drained and the source node is asleep.
	gated.Run(3_000)
	ungated.Run(3_000)
	if gated.idleSkipped == 0 {
		t.Fatal("the gated fabric skipped no cycles: the source node never slept")
	}
	if gc.ni.LastTick >= gated.Now()-1 {
		t.Fatalf("source ticked through cycle %d at cycle %d: nothing was elided before the modify", gc.ni.LastTick, gated.Now())
	}
	for _, m := range []struct {
		n *Network
		c *Conn
	}{{gated, gc}, {ungated, uc}} {
		if err := m.n.ModifyBandwidth(m.c, 40*traffic.Mbps); err != nil {
			t.Fatal(err)
		}
	}
	gb, err := gated.EncodeState()
	if err != nil {
		t.Fatalf("EncodeState straight after ModifyBandwidth on a gated fabric: %v", err)
	}
	ub, err := ungated.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, ub) {
		t.Fatal("gated and ungated fabrics encode differently straight after ModifyBandwidth")
	}

	gated.Run(5_000)
	ungated.Run(5_000)
	gs, us := gated.Stats(), ungated.Stats()
	if us.FlitsDelivered == 0 {
		t.Fatalf("degenerate scenario: %+v", us)
	}
	if !reflect.DeepEqual(gs, us) {
		t.Fatalf("gated run diverged after ModifyBandwidth:\nungated: %+v\ngated:   %+v", us, gs)
	}
}

// TestCloseGatedSourceEncodeEqual: stopping a session whose source node
// is gated out must first replay the cycles the node slept through, as
// ModifyBandwidth does — otherwise the stopped session records when its
// node last ran, and a gated fabric and its NoIdleSkip twin with equal
// statistics encode to different bytes.
func TestCloseGatedSourceEncodeEqual(t *testing.T) {
	build := func(noIdleSkip bool) (*Network, [2]*Conn) {
		tp, err := topology.Mesh(4, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(tp)
		cfg.Seed = 23
		cfg.NoIdleSkip = noIdleSkip
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Two slow sessions (a flit every few hundred cycles) on an
		// otherwise empty fabric: their source nodes sleep between
		// arrivals. One is drained and closed, the other closed outright.
		var cs [2]*Conn
		for i, ends := range [][2]int{{0, 15}, {3, 12}} {
			if cs[i], err = n.Open(ends[0], ends[1], traffic.ConnSpec{Class: flit.ClassCBR, Rate: 2 * traffic.Mbps}); err != nil {
				t.Fatal(err)
			}
		}
		return n, cs
	}
	gated, gc := build(false)
	ungated, uc := build(true)

	gated.Run(3_000)
	ungated.Run(3_000)
	for _, c := range gc {
		if c.ni.LastTick >= gated.Now()-1 {
			t.Fatalf("source of conn %d ticked through cycle %d at cycle %d: nothing was elided before the close", c.ID, c.ni.LastTick, gated.Now())
		}
	}
	same := func(when string) {
		t.Helper()
		gb, err := gated.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		ub, err := ungated.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, ub) {
			t.Fatalf("gated and ungated fabrics encode differently %s", when)
		}
	}
	for _, m := range []struct {
		n  *Network
		cs [2]*Conn
	}{{gated, gc}, {ungated, uc}} {
		if err := m.n.DrainAndClose(m.cs[0], 10_000); err != nil {
			t.Fatal(err)
		}
		if err := m.n.Close(m.cs[1]); err != nil {
			t.Fatal(err)
		}
	}
	same("straight after the closes")

	// A session stopped but still draining keeps its source: encode that
	// state too.
	for _, n := range []*Network{gated, ungated} {
		c, err := n.Open(5, 10, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 2 * traffic.Mbps})
		if err != nil {
			t.Fatal(err)
		}
		n.Run(3_000)
		n.stopSource(c)
	}
	same("with a stopped session still open for draining")

	gated.Run(5_000)
	ungated.Run(5_000)
	gs, us := gated.Stats(), ungated.Stats()
	if us.FlitsDelivered == 0 {
		t.Fatalf("degenerate scenario: %+v", us)
	}
	if !reflect.DeepEqual(gs, us) {
		t.Fatalf("gated run diverged after the closes:\nungated: %+v\ngated:   %+v", us, gs)
	}
	same("5000 cycles later")
}

// TestBreakStoppedSourceNoReplay: a session whose drain ran out of cycles
// stays stopped with its source attached and lastTick frozen at the stop.
// A fault crossing its path many arrivals later must not replay that gap —
// the source was not sleeping, it was off — and the gated fabric must
// still encode like its NoIdleSkip twin.
func TestBreakStoppedSourceNoReplay(t *testing.T) {
	var nets [2]*Network
	for i, noIdleSkip := range []bool{false, true} {
		tp, err := topology.Mesh(4, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(tp)
		cfg.Seed = 29
		cfg.NoIdleSkip = noIdleSkip
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = n
		c, err := n.Open(0, 15, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 2 * traffic.Mbps})
		if err != nil {
			t.Fatal(err)
		}
		// Stop right after an arrival, with no cycles to drain in: the
		// flit is still in the fabric, so the close is refused.
		for n.Stats().FlitsGenerated == 0 {
			n.Step()
		}
		period := n.Now()
		if err := n.DrainAndClose(c, 0); err == nil {
			t.Fatal("drain with no cycles closed a session with a flit in flight")
		}
		stopped := c.ni.LastTick
		n.Run(8 * period) // several arrivals' worth of silence
		if c.ni.LastTick != stopped || c.closed || c.ni.Source == nil {
			t.Fatalf("stopped session moved: lastTick %d -> %d, closed %v", stopped, c.ni.LastTick, c.closed)
		}
		if err := n.FailLink(c.Path[0].Node, c.Path[0].Port); err != nil {
			t.Fatal(err)
		}
		n.Run(2 * period)
	}
	gb, err := nets[0].EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	ub, err := nets[1].EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, ub) {
		t.Fatal("gated and ungated fabrics encode differently after a fault broke a stopped session")
	}
	if gs, us := nets[0].Stats(), nets[1].Stats(); !reflect.DeepEqual(gs, us) {
		t.Fatalf("gated run diverged:\nungated: %+v\ngated:   %+v", us, gs)
	}
}

// TestBlockedPacketsSleepEquivalence: packets the routing unit cannot
// route — every VC of the one port they may enter next is reserved — let
// their router sleep, and whatever frees a VC there wakes it: a session
// closing (control plane), another packet leaving that port (commit
// phase), and a fault transition makes them look again; with impaired
// links, where a packet dying on the wire frees its VC too late to tell
// anyone, nobody sleeps. Four routers in a line: sessions
// from router 1 and from router 2 to router 3 fill router 3's input
// port, packets from router 0 to router 3 queue in router 2. The session
// closed is one from router 1, so nothing but the freed VC tells router
// 2. The gated fabric is held to the scans every cycle and to its
// NoIdleSkip twin at every stage.
func TestBlockedPacketsSleepEquivalence(t *testing.T) {
	const vcs = 4
	for _, tc := range []struct {
		name   string
		from2  int     // sessions from router 2; two more come from router 1
		beRate float64 // packets per cycle from router 0 to router 3
		delay  int64
		drop   float64 // drop probability on the wire from router 2 to 3
	}{
		{"port-full/delay1", vcs - 2, 0.001, 1, 0},
		{"port-full/delay3", vcs - 2, 0.001, 3, 0},
		// With a wire delay the packet holding the last VC is still in
		// flight while the next one finds the port full.
		{"one-vc-left/delay2", vcs - 3, 0.3, 2, 0},
		{"one-vc-left/delay3", vcs - 3, 0.3, 3, 0},
		{"one-vc-left/delay3/drops", vcs - 3, 0.3, 3, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var nets [2]*Network
			var conns [2][]*Conn
			for i, noIdleSkip := range []bool{false, true} {
				tp, err := topology.Mesh(4, 1, 4)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig(tp)
				cfg.Seed = 31
				cfg.VCs = vcs
				cfg.LinkDelay = tc.delay
				cfg.NoIdleSkip = noIdleSkip
				n, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < 2+tc.from2; s++ {
					src := 1
					if s >= 2 {
						src = 2
					}
					c, err := n.Open(src, 3, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 2 * traffic.Mbps})
					if err != nil {
						t.Fatal(err)
					}
					conns[i] = append(conns[i], c)
				}
				if _, err := n.AddBestEffortFlow(0, 3, tc.beRate); err != nil {
					t.Fatal(err)
				}
				if tc.drop > 0 {
					if err := n.ApplyPlan(faults.NewPlan(5).Impair(2, 0, tc.drop, 0), 1); err != nil {
						t.Fatal(err)
					}
				}
				nets[i] = n
			}
			gated, ungated := nets[0], nets[1]
			same := func(when string) {
				t.Helper()
				gb, err := gated.EncodeState()
				if err != nil {
					t.Fatal(err)
				}
				ub, err := ungated.EncodeState()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb, ub) {
					t.Fatalf("gated and ungated fabrics encode differently %s", when)
				}
				if gs, us := gated.Stats(), ungated.Stats(); !reflect.DeepEqual(gs, us) {
					t.Fatalf("gated run diverged %s:\nungated: %+v\ngated:   %+v", when, us, gs)
				}
			}
			// run steps the gated fabric cycle by cycle under the scans
			// and counts the cycles router 2 slept on unroutable packets.
			slept := 0
			run := func(cycles int64) {
				for i := int64(0); i < cycles; i++ {
					gated.Step()
					checkWakeTable(t, gated)
					if _, unrouted := gated.referenceBuffered(gated.nodes[2]); unrouted && gated.wakeAt[2] > gated.now {
						slept++
					}
				}
				ungated.Run(cycles)
			}

			run(2_000)
			if (slept == 0) != (tc.drop > 0) {
				t.Fatalf("router 2 slept %d cycles on blocked packets", slept)
			}
			same("with packets blocked")

			// A fault elsewhere rebuilds the routing: blocked routers look again.
			for _, n := range nets {
				if err := n.FailLink(0, 0); err != nil {
					t.Fatal(err)
				}
			}
			run(50)
			for _, n := range nets {
				if err := n.RestoreLink(0, 0); err != nil {
					t.Fatal(err)
				}
			}
			run(500)
			same("after a link outage")

			// Closing a session frees a VC at router 3: the packets move.
			before := gated.Stats().BEDelivered
			for i, n := range nets {
				if err := n.DrainAndClose(conns[i][0], 10_000); err != nil {
					t.Fatal(err)
				}
			}
			same("straight after the close")
			run(2_000)
			if gated.Stats().BEDelivered == before {
				t.Fatal("no packet delivered after a VC came free")
			}
			same("2000 cycles after the close")

			// And through Run, where the sleeping router lets the clock jump.
			skipped := gated.idleSkipped
			gated.Run(3_000)
			ungated.Run(3_000)
			checkWakeTable(t, gated)
			if tc.beRate < 0.01 && gated.idleSkipped == skipped {
				t.Fatal("Run elided nothing")
			}
			same("after Run")

			// Impairments arriving while router 2 sleeps on a packet wake
			// it and end the sleeping.
			asleep := func() bool {
				_, unrouted := gated.referenceBuffered(gated.nodes[2])
				return unrouted && gated.wakeAt[2] > gated.now
			}
			for i := 0; i < 2_000 && !asleep(); i++ {
				run(1)
			}
			if !asleep() && tc.name == "one-vc-left/delay3" {
				t.Fatal("router 2 never slept on a blocked packet again")
			}
			for _, n := range nets {
				if err := n.ApplyPlan(faults.NewPlan(5).Impair(2, 0, 0.5, 0), 1); err != nil {
					t.Fatal(err)
				}
			}
			checkWakeTable(t, gated)
			slept = 0
			run(1_000)
			if slept > 0 {
				t.Fatalf("router 2 slept %d cycles on blocked packets under impairments", slept)
			}
			same("with the link impaired")
		})
	}
}

// TestBlockedSessionsAreNotHeld pins what a node's source calendar holds: a
// session whose interface queues flits behind a full entry VC is not looked
// at every cycle — the pop that frees a slot refills it — so after every
// cycle in which each queued session of a node has its entry VC full, that
// node's calendar holds nothing. It runs the toy dense fat tree, whose
// hosts inject 0.6 of their link and back up behind their entry VCs, and
// requires the gated fabric to encode to the bytes of a NoIdleSkip twin.
func TestBlockedSessionsAreNotHeld(t *testing.T) {
	gated, ungated := buildDense(t, 4, false), buildDense(t, 4, true)
	blocked := 0
	for c := 0; c < 3_000; c++ {
		gated.Run(1)
		ungated.Run(1)
		for _, nd := range gated.nodes {
			queued, full := 0, true
			for _, s := range nd.srcConns {
				if !s.closed && !s.broken && s.ni.Queue.Len() > 0 {
					queued++
					full = full && nd.Mems[s.VCs[0].Port].Free(s.VCs[0].VC) == 0
				}
			}
			if queued == 0 || !full {
				continue
			}
			blocked++
			if nd.cal.Holding() {
				t.Fatalf("cycle %d node %d: %d sessions queue flits behind full entry VCs and the calendar holds one", gated.now-1, nd.id, queued)
			}
		}
	}
	if blocked == 0 {
		t.Fatal("degenerate run: no node ended a cycle with a session backlogged behind its full entry VC")
	}
	gb, err := gated.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	ub, err := ungated.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, ub) {
		t.Error("gated fabric encodes differently from its NoIdleSkip twin")
	}
	if gs, us := gated.Stats(), ungated.Stats(); !reflect.DeepEqual(gs, us) {
		t.Errorf("gated run diverged:\nungated: %+v\ngated:   %+v", us, gs)
	}
}
