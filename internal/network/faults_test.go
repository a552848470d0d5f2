package network

import (
	"strings"
	"testing"

	"mmr/internal/faults"
	"mmr/internal/flit"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// healingScenario builds the acceptance scenario: an irregular 12-router
// fabric carrying several CBR connections, and a victim connection whose
// first-hop link is scheduled to fail at cycle 500 — chosen so the
// surviving topology still connects its endpoints, i.e. an alternate
// path exists for restoration to find.
func healingScenario(t *testing.T, policy FaultPolicy) (*Network, *Conn) {
	t.Helper()
	rng := sim.NewRNG(11)
	tp, err := topology.Irregular(12, 6, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.VCs = 8
	cfg.Seed = 7
	cfg.Fault = policy
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var victim *Conn
	for i := 0; i < 8; i++ {
		src, dst := i, (i+5)%12
		c, err := n.Open(src, dst, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 10 * traffic.Mbps})
		if err != nil {
			continue
		}
		if victim != nil || len(c.Path) == 0 {
			continue
		}
		// Victim candidate: removing its first-hop link must leave the
		// endpoints connected, so restoration has somewhere to go.
		hop := c.Path[0]
		tp.SetLinkUp(hop.Node, hop.Port, false)
		reachable := tp.ShortestDists(c.Src)[c.Dst] > 0
		tp.SetLinkUp(hop.Node, hop.Port, true)
		if reachable {
			victim = c
		}
	}
	if victim == nil {
		t.Fatal("no connection with an alternate path; adjust seeds")
	}
	hop := victim.Path[0]
	plan := faults.NewPlan(3).FailLinkAt(500, hop.Node, hop.Port).RestoreLinkAt(4000, hop.Node, hop.Port)
	if err := n.ApplyPlan(plan, 10_000); err != nil {
		t.Fatal(err)
	}
	return n, victim
}

// TestFaultBreaksAndRestoresConnection is the tentpole acceptance demo:
// a scheduled link failure breaks at least one CBR connection; the
// network re-establishes it on a surviving path within bounded cycles;
// flits keep flowing end to end; and after closing every connection the
// fabric holds zero leaked VCs, credits or bandwidth.
func TestFaultBreaksAndRestoresConnection(t *testing.T) {
	n, victim := healingScenario(t, FaultPolicy{
		Restore: true, MaxRetries: 5, RetryBackoff: 32, Degrade: true, Paranoid: true,
	})
	n.Run(5000)

	st := n.Stats()
	if st.FaultsInjected != 1 || st.FaultsRepaired != 1 {
		t.Fatalf("faults injected=%d repaired=%d, want 1/1", st.FaultsInjected, st.FaultsRepaired)
	}
	if st.ConnsBroken < 1 {
		t.Fatal("the scheduled link failure broke no connection")
	}
	if victim.Restores < 1 || !victim.Open() || victim.Broken() || victim.Degraded {
		t.Fatalf("victim not restored: restores=%d open=%v broken=%v degraded=%v",
			victim.Restores, victim.Open(), victim.Broken(), victim.Degraded)
	}
	if st.ConnsRestored < 1 {
		t.Fatalf("stats recorded %d restorations", st.ConnsRestored)
	}
	// Bounded restoration: first re-search fires the cycle after the
	// break and succeeds well within one backoff ladder.
	if max := st.RestoreLatency.Max(); max > 500 {
		t.Fatalf("restoration took %.0f cycles", max)
	}
	if st.FlitsDelivered == 0 {
		t.Fatal("no flits delivered across the healed fabric")
	}
	// The victim's traffic resumed after restoration.
	if !victim.Open() || len(victim.VCs) == 0 {
		t.Fatal("victim carries no installed path after restoration")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants after healing: %v", err)
	}
	// Session log tells the story in order: link-down before conn-broken
	// before conn-restored.
	order := map[string]int{}
	for i, ev := range n.SessionEvents() {
		if _, seen := order[ev.Kind]; !seen {
			order[ev.Kind] = i
		}
	}
	for _, pair := range [][2]string{{"link-down", "conn-broken"}, {"conn-broken", "conn-restored"}, {"conn-restored", "link-up"}} {
		a, oka := order[pair[0]]
		b, okb := order[pair[1]]
		if !oka || !okb || a > b {
			t.Fatalf("session log out of order: %v", n.SessionEvents())
		}
	}

	// Zero-leak shutdown: close everything, then the exact-equality audit
	// (no live connections, no probes) must hold.
	for _, c := range n.Conns() {
		if !c.closed && !c.Broken() {
			if err := n.DrainAndClose(c, 5000); err != nil {
				t.Fatalf("drain conn %d: %v", c.ID, err)
			}
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("resources leaked after full teardown: %v", err)
	}
}

// TestFaultDegradesWithoutRestore: the same scenario with restoration
// disabled degrades the broken connection to a best-effort flow instead.
func TestFaultDegradesWithoutRestore(t *testing.T) {
	n, victim := healingScenario(t, FaultPolicy{
		Restore: false, MaxRetries: 5, RetryBackoff: 32, Degrade: true, Paranoid: true,
	})
	beBefore := n.Stats().BEGenerated
	n.Run(5000)
	st := n.Stats()
	if !victim.Degraded || victim.Open() {
		t.Fatalf("victim should be degraded: degraded=%v open=%v", victim.Degraded, victim.Open())
	}
	if st.ConnsDegraded < 1 || st.ConnsRestored != 0 {
		t.Fatalf("degraded=%d restored=%d, want >=1/0", st.ConnsDegraded, st.ConnsRestored)
	}
	if st.BEGenerated <= beBefore {
		t.Fatal("degraded connection generates no best-effort traffic")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants after degradation: %v", err)
	}
}

// TestCloseDegradedRetiresFallback: hanging up a degraded session must
// retire its best-effort fallback flow — otherwise every degraded
// session leaks an immortal generator and a long-lived fabric drowns in
// fallback traffic under churn.
func TestCloseDegradedRetiresFallback(t *testing.T) {
	n, victim := healingScenario(t, FaultPolicy{
		Restore: false, MaxRetries: 5, RetryBackoff: 32, Degrade: true, Paranoid: true,
	})
	n.Run(5000)
	if !victim.Degraded {
		t.Fatalf("victim should be degraded (broken=%v lost=%v)", victim.Broken(), victim.Lost())
	}
	if err := n.Close(victim); err != nil {
		t.Fatalf("close degraded: %v", err)
	}
	if !victim.Closed() {
		t.Fatal("degraded connection not marked closed")
	}
	if err := n.Close(victim); err == nil {
		t.Fatal("double close of a degraded connection succeeded")
	}
	// The failed link may have broken (and degraded) other connections
	// sharing it; hang those up too so no fallback generator remains.
	for _, c := range n.Conns() {
		if c.Degraded && !c.Closed() {
			if err := n.Close(c); err != nil {
				t.Fatalf("close degraded conn %d: %v", c.ID, err)
			}
		}
	}
	// Let in-flight fallback packets drain, then confirm the generators
	// are gone: no new best-effort traffic appears.
	n.Run(2000)
	before := n.Stats().BEGenerated
	n.Run(5000)
	if after := n.Stats().BEGenerated; after != before {
		t.Fatalf("retired fallback flow still generates: %d -> %d", before, after)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants after degraded close: %v", err)
	}
}

// TestFaultLostWithoutDegrade: with both restoration and degradation off
// the session is dropped outright.
func TestFaultLostWithoutDegrade(t *testing.T) {
	n, victim := healingScenario(t, FaultPolicy{
		Restore: false, Degrade: false, MaxRetries: 0, RetryBackoff: 1, Paranoid: true,
	})
	n.Run(2000)
	if !victim.Lost() || victim.Open() || victim.Degraded {
		t.Fatalf("victim should be lost: lost=%v open=%v degraded=%v", victim.Lost(), victim.Open(), victim.Degraded)
	}
	if st := n.Stats(); st.ConnsLost < 1 {
		t.Fatalf("stats recorded %d lost connections", st.ConnsLost)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants after loss: %v", err)
	}
}

// TestRestoreExhaustedDegrades: failing every link of the victim's source
// router makes restoration impossible; after the retry budget the
// connection falls back to best-effort.
func TestRestoreExhaustedDegrades(t *testing.T) {
	rng := sim.NewRNG(11)
	tp, _ := topology.Irregular(12, 6, 3, rng)
	cfg := DefaultConfig(tp)
	cfg.VCs = 8
	cfg.Seed = 7
	cfg.Fault = FaultPolicy{Restore: true, MaxRetries: 2, RetryBackoff: 4, Degrade: true, Paranoid: true}
	n, _ := New(cfg)
	c, err := n.Open(0, 6, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 5 * traffic.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(100)
	if err := n.FailRouter(0); err != nil {
		t.Fatal(err)
	}
	n.Run(2000)
	if !c.Degraded {
		t.Fatalf("connection should have degraded after exhausting retries (broken=%v lost=%v)", c.Broken(), c.Lost())
	}
	if st := n.Stats(); st.SetupRetries < 2 {
		t.Fatalf("expected >=2 retries, got %d", st.SetupRetries)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Repair the router: the degraded session stays best-effort (no
	// re-promotion), but new guaranteed connections establish again.
	if err := n.RestoreRouter(0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Open(0, 6, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 5 * traffic.Mbps}); err != nil {
		t.Fatalf("open after router repair: %v", err)
	}
}

// TestImpairedLinkPreservesFlowControl: a lossy link drops flits but the
// synthesized credit returns keep the conservation invariant intact, and
// the connection still drains and closes cleanly.
func TestImpairedLinkPreservesFlowControl(t *testing.T) {
	tp, _ := topology.Mesh(3, 1, 4) // chain 0-1-2
	cfg := DefaultConfig(tp)
	cfg.VCs = 8
	cfg.Seed = 5
	n, _ := New(cfg)
	plan := faults.NewPlan(21).Impair(0, 0, 0.25, 0.05) // east link out of node 0
	if err := n.ApplyPlan(plan, 1); err != nil {
		t.Fatal(err)
	}
	c, err := n.Open(0, 2, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 55 * traffic.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddBestEffortFlow(0, 2, 0.01); err != nil {
		t.Fatal(err)
	}
	n.Run(20_000)
	st := n.Stats()
	if st.FlitsDropped == 0 {
		t.Fatal("a 25% lossy link dropped nothing over 20k cycles")
	}
	if st.FlitsCorrupted == 0 {
		t.Fatal("a 5% corrupting link corrupted nothing")
	}
	if st.FlitsDelivered == 0 {
		t.Fatal("nothing survived the lossy link")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants under loss: %v", err)
	}
	if err := n.DrainAndClose(c, 5000); err != nil {
		t.Fatalf("drain over lossy link: %v", err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("leak after closing over lossy link: %v", err)
	}
}

// TestOpenWithRetry: a rejected search succeeds on a later attempt once
// the blocking connection closes.
func TestOpenWithRetry(t *testing.T) {
	tp, _ := topology.Mesh(3, 1, 4)
	cfg := DefaultConfig(tp)
	cfg.VCs = 8
	cfg.Seed = 2
	n, _ := New(cfg)
	// Saturate the 0→1 link.
	var blockers []*Conn
	for {
		c, err := n.Open(0, 2, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 120 * traffic.Mbps})
		if err != nil {
			break
		}
		blockers = append(blockers, c)
	}
	if len(blockers) == 0 {
		t.Fatal("link never saturated")
	}
	var got *Conn
	var gotErr error
	fired := false
	err := n.OpenWithRetry(0, 2, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 120 * traffic.Mbps},
		func(c *Conn, err error) { got, gotErr, fired = c, err, true })
	if err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("first attempt should have been rejected and backed off")
	}
	// Free the bandwidth before the retry fires (no cycles have run, so
	// the blocker has nothing buffered and closes immediately).
	if err := n.Close(blockers[0]); err != nil {
		t.Fatal(err)
	}
	n.Run(5000)
	if !fired || gotErr != nil || got == nil || !got.Open() {
		t.Fatalf("retry did not establish: fired=%v err=%v", fired, gotErr)
	}
	if st := n.Stats(); st.SetupRetries < 1 {
		t.Fatalf("no retry counted: %d", st.SetupRetries)
	}
	// Invalid endpoints are rejected synchronously.
	if err := n.OpenWithRetry(0, 0, traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Mbps}, nil); err == nil {
		t.Fatal("same-node endpoints accepted")
	}
}

// TestOpenPanicReleasesResources: a panic escaping the per-hop admission
// logic mid-search must not leak the entry VC or partial reservations.
func TestOpenPanicReleasesResources(t *testing.T) {
	tp, _ := topology.Mesh(3, 3, 4)
	cfg := DefaultConfig(tp)
	cfg.VCs = 8
	n, _ := New(cfg)
	calls := 0
	searchHook = func() {
		calls++
		if calls == 3 {
			panic("injected admission fault")
		}
	}
	defer func() { searchHook = nil }()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected panic did not propagate")
			}
		}()
		n.Open(0, 8, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 10 * traffic.Mbps})
	}()
	searchHook = nil
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("mid-search panic leaked resources: %v", err)
	}
	// The fabric is still fully usable.
	if _, err := n.Open(0, 8, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 10 * traffic.Mbps}); err != nil {
		t.Fatalf("open after recovered panic: %v", err)
	}
}

// TestCloseIdempotentAndGuarded: closing twice errors, closing a broken
// connection errors, and none of it double-releases resources.
func TestCloseIdempotentAndGuarded(t *testing.T) {
	tp, _ := topology.Mesh(3, 1, 4)
	cfg := DefaultConfig(tp)
	cfg.VCs = 8
	n, _ := New(cfg)
	c, err := n.Open(0, 2, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 10 * traffic.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(c); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(c); err == nil || !strings.Contains(err.Error(), "already closed") {
		t.Fatalf("second close: %v", err)
	}
	if err := n.DrainAndClose(c, 10); err == nil {
		t.Fatal("drain of a closed connection succeeded")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A fault-broken connection cannot be closed (its resources are
	// already released; restoration owns it).
	cfg2 := DefaultConfig(tp)
	cfg2.VCs = 8
	cfg2.Fault.Restore = false
	cfg2.Fault.Degrade = false
	n2, _ := New(cfg2)
	c2, err := n2.Open(0, 2, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 10 * traffic.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	n2.FailLink(c2.Path[0].Node, c2.Path[0].Port)
	if err := n2.Close(c2); err == nil {
		t.Fatal("closed a fault-broken connection")
	}
	if err := n2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainAndCloseUnderContention: connections sharing a saturated
// bottleneck all drain and close, leaving zero residue.
func TestDrainAndCloseUnderContention(t *testing.T) {
	tp, _ := topology.Mesh(3, 1, 4)
	cfg := DefaultConfig(tp)
	cfg.VCs = 16
	cfg.Seed = 9
	n, _ := New(cfg)
	var conns []*Conn
	for i := 0; i < 6; i++ {
		c, err := n.Open(0, 2, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 55 * traffic.Mbps})
		if err != nil {
			break
		}
		conns = append(conns, c)
	}
	if len(conns) < 2 {
		t.Fatalf("wanted >=2 contending connections, got %d", len(conns))
	}
	n.Run(3000) // fill the pipeline under contention
	// Step to a cycle where the first connection really has flits in
	// flight, so a 1-cycle drain limit cannot possibly finish (the flit
	// must still traverse hops, and its credits take another wire delay).
	buffered := func(c *Conn) int {
		total := c.ni.Queue.Len()
		for i, ref := range c.VCs {
			total += n.nodes[c.Nodes[i]].Mems[ref.Port].Len(ref.VC)
		}
		return total
	}
	for i := 0; i < 10_000 && buffered(conns[0]) == 0; i++ {
		n.Step()
	}
	if buffered(conns[0]) == 0 {
		t.Fatal("connection never had flits in flight")
	}
	// A drain limit too short to empty the pipeline reports failure and
	// releases nothing — the connection remains intact and accounted.
	if err := n.DrainAndClose(conns[0], 1); err == nil {
		t.Fatal("1-cycle drain of a loaded connection succeeded")
	}
	if conns[0].closed {
		t.Fatal("failed drain marked the connection closed")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("failed drain corrupted state: %v", err)
	}
	for _, c := range conns {
		if err := n.DrainAndClose(c, 10_000); err != nil {
			t.Fatalf("drain conn %d under contention: %v", c.ID, err)
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("residue after contended teardown: %v", err)
	}
	st := n.Stats()
	if st.Closed != int64(len(conns)) {
		t.Fatalf("closed %d of %d", st.Closed, len(conns))
	}
}

// TestFailRestoreIdempotent: repeated fail/restore of the same link and
// operations on unwired ports behave sanely.
func TestFailRestoreIdempotent(t *testing.T) {
	tp, _ := topology.Mesh(3, 3, 4)
	cfg := DefaultConfig(tp)
	cfg.VCs = 8
	n, _ := New(cfg)
	if err := n.FailLink(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.FailLink(0, 0); err != nil { // already down: no-op
		t.Fatal(err)
	}
	if st := n.Stats(); st.FaultsInjected != 1 {
		t.Fatalf("double-fail counted twice: %d", st.FaultsInjected)
	}
	if err := n.RestoreLink(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.RestoreLink(0, 0); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.FaultsRepaired != 1 {
		t.Fatalf("double-restore counted twice: %d", st.FaultsRepaired)
	}
	if err := n.FailLink(0, 1); err == nil { // west port of node 0 is unwired
		t.Fatal("failed an unwired port")
	}
	if err := n.FailLink(-1, 0); err == nil {
		t.Fatal("failed an out-of-range node")
	}
	if err := n.RestoreRouter(99); err == nil {
		t.Fatal("restored an out-of-range router")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
