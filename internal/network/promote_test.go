package network

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmr/internal/admission"
	"mmr/internal/checkpoint"
	"mmr/internal/faults"
	"mmr/internal/flit"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// promoteTestLink makes allocations exact: 1280 Mbps with the chain
// scenario's roundLen of 32 gives one cycle/round per 40 Mbps, so the
// capacity arithmetic in the tests has no rounding slack. Victims run
// at 40 Mbps (one slot each) so their fallback flows inject lightly —
// a fallback pumps at the victim's full former rate, and heavy victims
// would jam the host port faster than the tests can drain it.
var promoteTestLink = traffic.Link{Bandwidth: 1280 * traffic.Mbps, FlitBits: 128, PhitBits: 16}

func victimSpec() traffic.ConnSpec {
	return traffic.ConnSpec{Class: flit.ClassCBR, Rate: 40 * traffic.Mbps}
}

func blockerSpec(mbps int) traffic.ConnSpec {
	return traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Rate(mbps) * traffic.Mbps}
}

// chainPromotionConfig is the 3-router chain (one path, no reroute)
// whose single westmost link carries every connection — failing it
// breaks them all, and with no alternate path the short retry ladder
// exhausts and they all degrade.
func chainPromotionConfig(t *testing.T) Config {
	t.Helper()
	tp, err := topology.Mesh(3, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.VCs = 16 // roundLen 32: exactly one slot per link per 40 Mbps
	cfg.Seed = 3
	cfg.Link = promoteTestLink
	cfg.Fault = FaultPolicy{Restore: true, MaxRetries: 2, RetryBackoff: 4, Degrade: true, Promote: true, Paranoid: true}
	return cfg
}

// chainPromotionScenario opens four one-slot sessions on the chain,
// fails the only link and runs until every session has degraded to
// best-effort service.
func chainPromotionScenario(t *testing.T, open func(n *Network, i int) (*Conn, error)) (*Network, []*Conn) {
	t.Helper()
	n, err := New(chainPromotionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	var victims []*Conn
	for i := 0; i < 4; i++ {
		c, err := open(n, i)
		if err != nil {
			t.Fatalf("victim %d: %v", i, err)
		}
		victims = append(victims, c)
	}
	n.Run(100)
	if err := n.FailLink(0, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(2000) // retry ladder (2 × backoff 4) exhausts; everyone degrades
	for _, c := range victims {
		if !c.Degraded {
			t.Fatalf("conn %d not degraded after retries exhausted (broken=%v lost=%v)", c.ID, c.Broken(), c.Lost())
		}
	}
	if got := n.DegradedLive(); got != len(victims) {
		t.Fatalf("DegradedLive = %d, want %d", got, len(victims))
	}
	return n, victims
}

func defaultOpen(n *Network, _ int) (*Conn, error) { return n.Open(0, 2, victimSpec()) }

// TestDegradedSessionRePromoted is the tentpole acceptance demo: the
// healing scenario with restoration disabled degrades the victim to
// best-effort, and when the failed link comes back the re-promotion
// scan returns it to guaranteed service, retiring the fallback flow —
// the session log shows degraded before promoted.
func TestDegradedSessionRePromoted(t *testing.T) {
	n, victim := healingScenario(t, FaultPolicy{
		Restore: false, MaxRetries: 5, RetryBackoff: 32, Degrade: true, Promote: true, Paranoid: true,
	})
	n.Run(10_000) // break at 500, degrade, link repaired at 4000, promotion after

	if victim.Degraded || !victim.Open() || len(victim.VCs) == 0 {
		t.Fatalf("victim not re-promoted: degraded=%v open=%v", victim.Degraded, victim.Open())
	}
	st := n.Stats()
	if st.ConnsDegraded < 1 || st.ConnsPromoted < 1 {
		t.Fatalf("degraded=%d promoted=%d, want >=1/>=1", st.ConnsDegraded, st.ConnsPromoted)
	}
	if got := n.DegradedLive(); got != 0 {
		t.Fatalf("%d sessions still degraded after the link repair", got)
	}
	order := map[string]int{}
	for i, ev := range n.SessionEvents() {
		if _, seen := order[ev.Kind]; !seen {
			order[ev.Kind] = i
		}
	}
	for _, pair := range [][2]string{{"conn-degraded", "link-up"}, {"link-up", "conn-promoted"}} {
		a, oka := order[pair[0]]
		b, okb := order[pair[1]]
		if !oka || !okb || a > b {
			t.Fatalf("session log out of order (want %s before %s): %v", pair[0], pair[1], order)
		}
	}
	if err := n.CheckBEFlowOwners(); err != nil {
		t.Fatalf("fallback-flow audit: %v", err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants after promotion: %v", err)
	}
	// The fallback generator is gone: best-effort generation has stopped.
	before := n.Stats().BEGenerated
	n.Run(5000)
	if after := n.Stats().BEGenerated; after != before {
		t.Fatalf("retired fallback flow still generates: %d -> %d", before, after)
	}
}

// TestPromotionDisabledStaysDegraded guards the config gate: with
// Promote off the repaired link changes nothing and the session stays
// on best-effort service forever (the pre-promotion behavior).
func TestPromotionDisabledStaysDegraded(t *testing.T) {
	n, victim := healingScenario(t, FaultPolicy{
		Restore: false, MaxRetries: 5, RetryBackoff: 32, Degrade: true, Promote: false, Paranoid: true,
	})
	n.Run(10_000)
	if !victim.Degraded || victim.Open() {
		t.Fatalf("victim should stay degraded with Promote off: degraded=%v open=%v", victim.Degraded, victim.Open())
	}
	if st := n.Stats(); st.ConnsPromoted != 0 {
		t.Fatalf("ConnsPromoted = %d with promotion disabled", st.ConnsPromoted)
	}
}

// TestPromotionCapacityAndTriggers pins down the scan's capacity
// arithmetic, fairness order, retry exhaustion, and both renegotiation
// triggers: after the link repair a blocker holds 31 of the 32 slots;
// a §4.3 bandwidth shrink to 30 promotes exactly two victims (lowest
// IDs first), a further shrink promotes exactly one more, and a
// graceful close recovers the last. Idle time between triggers never
// promotes anything — the ladder is exhausted.
func TestPromotionCapacityAndTriggers(t *testing.T) {
	n, victims := chainPromotionScenario(t, defaultOpen)

	// The fallback flows spent 2000 cycles pumping into a dead link, so
	// the repaired fabric starts jammed: the restore-triggered scan
	// ladder exhausts against the backlog before a host VC frees.
	if err := n.RestoreLink(0, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(3000)
	if got := n.DegradedLive(); got != len(victims) {
		t.Fatalf("DegradedLive = %d right after repair, want %d (scan should lose the race to the backlog drain)", got, len(victims))
	}
	// The ladder is spent: idle cycles alone never promote, no matter
	// how much capacity sits free.
	n.Run(2000)
	if got := n.DegradedLive(); got != len(victims) {
		t.Fatalf("DegradedLive = %d after idle, want %d (ladder exhausted, no trigger)", got, len(victims))
	}
	// A new session takes 31 of the 32 slots. Opening is not a
	// capacity-returning event: still no rescan.
	blocker, err := n.Open(0, 2, blockerSpec(1240))
	if err != nil {
		t.Fatalf("blocker open after link repair: %v", err)
	}
	// Short windows from here on: the stuck fallbacks are starved (zero
	// to one free slot) and their backlog must stay under the host
	// port's 16 VCs or the next scan cannot reserve an entry VC.
	n.Run(30)
	if got := n.DegradedLive(); got != len(victims) {
		t.Fatalf("DegradedLive = %d after blocker open, want %d (open is not a trigger)", got, len(victims))
	}

	// Trigger: shrinking the blocker (§4.3 renegotiation) returns
	// capacity — the scan finds two free slots, enough for two victims.
	if err := n.ModifyBandwidth(blocker, 1200*traffic.Mbps); err != nil {
		t.Fatalf("shrink blocker: %v", err)
	}
	n.Run(40)
	var stuck []*Conn
	promoted := 0
	for _, c := range victims {
		switch {
		case c.Open() && !c.Degraded:
			promoted++
		case c.Degraded:
			stuck = append(stuck, c)
		}
	}
	if promoted != 2 || len(stuck) != 2 {
		t.Fatalf("promoted=%d stuck=%d, want 2/2", promoted, len(stuck))
	}
	// Fairness: equal tenants tie-break on connection ID, so the two
	// highest IDs are the ones left waiting.
	if stuck[0].ID != victims[2].ID || stuck[1].ID != victims[3].ID {
		t.Fatalf("stuck IDs %d,%d; want %d,%d (lowest IDs promote first)",
			stuck[0].ID, stuck[1].ID, victims[2].ID, victims[3].ID)
	}
	if st := n.Stats(); st.ConnsPromoted != 2 {
		t.Fatalf("ConnsPromoted = %d, want 2", st.ConnsPromoted)
	}

	// A further shrink frees exactly one more slot — only the lower-ID
	// straggler recovers.
	if err := n.ModifyBandwidth(blocker, 1160*traffic.Mbps); err != nil {
		t.Fatalf("shrink blocker: %v", err)
	}
	n.Run(40)
	if got := n.DegradedLive(); got != 1 {
		t.Fatalf("DegradedLive = %d after second shrink, want 1", got)
	}
	if stuck[0].Degraded || !stuck[0].Open() {
		t.Fatalf("lower-ID stuck conn %d should promote first after the shrink", stuck[0].ID)
	}

	// Trigger: a graceful close frees the last slot.
	if err := n.DrainAndClose(blocker, 5000); err != nil {
		t.Fatalf("close blocker: %v", err)
	}
	n.Run(1000)
	if got := n.DegradedLive(); got != 0 {
		t.Fatalf("DegradedLive = %d after close, want 0", got)
	}
	if st := n.Stats(); st.ConnsPromoted != 4 {
		t.Fatalf("ConnsPromoted = %d, want 4", st.ConnsPromoted)
	}
	if err := n.CheckBEFlowOwners(); err != nil {
		t.Fatalf("fallback-flow audit: %v", err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants after full recovery: %v", err)
	}
}

// TestPromotionHonorsTenantQuota: re-promotion re-enters admission, so
// a tenant whose guaranteed budget is exhausted keeps its sessions
// degraded while an unconstrained tenant's sessions all recover; when
// the quota is raised, the next capacity trigger promotes the rest.
func TestPromotionHonorsTenantQuota(t *testing.T) {
	n, victims := chainPromotionScenario(t, func(n *Network, i int) (*Conn, error) {
		tenant := "a"
		if i%2 == 1 {
			tenant = "b"
		}
		return openAs(n, tenant, 0, 2, victimSpec())
	})

	// Tenant a may hold one session's worth of guaranteed bandwidth
	// (its two degraded sessions currently hold none).
	slot := n.GuaranteedCyclesFor(victimSpec())
	n.Tenants().SetQuota("a", admission.TenantQuota{MaxGuaranteed: slot})
	if err := n.RestoreLink(0, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(3000) // the fallback backlog drains; the restore-triggered ladder exhausted against it
	// A short-lived session's close triggers the rescan with the whole
	// round free: tenant b recovers fully, tenant a only up to its quota.
	dummy, err := n.Open(0, 2, victimSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(dummy); err != nil {
		t.Fatal(err)
	}
	n.Run(2000)

	aStuck, aOpen, bOpen := 0, 0, 0
	for _, c := range victims {
		switch {
		case c.Tenant == "a" && c.Degraded:
			aStuck++
		case c.Tenant == "a" && c.Open():
			aOpen++
		case c.Tenant == "b" && c.Open():
			bOpen++
		}
	}
	if aOpen != 1 || aStuck != 1 || bOpen != 2 {
		t.Fatalf("a: %d open %d stuck, b: %d open; want 1/1/2", aOpen, aStuck, bOpen)
	}
	if u := n.Tenants().Usage("a"); u.Sessions != 2 || u.Guaranteed != slot {
		t.Fatalf("tenant a usage %+v, want 2 sessions / %d guaranteed", u, slot)
	}

	// Raising the quota is not itself a capacity event: the scan ladder
	// is exhausted, so the stragglers wait for the next trigger.
	n.Tenants().SetQuota("a", admission.TenantQuota{})
	n.Run(3000)
	if got := n.DegradedLive(); got != 1 {
		t.Fatalf("DegradedLive = %d after quota raise alone, want 1", got)
	}
	// A close triggers the rescan; with the quota gone everyone recovers.
	var b0 *Conn
	for _, c := range victims {
		if c.Tenant == "b" && c.Open() {
			b0 = c
			break
		}
	}
	if err := n.DrainAndClose(b0, 5000); err != nil {
		t.Fatal(err)
	}
	n.Run(1000)
	if got := n.DegradedLive(); got != 0 {
		t.Fatalf("DegradedLive = %d after quota raise + trigger, want 0", got)
	}
	if err := n.CheckBEFlowOwners(); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPromotionSurvivesCheckpoint kills the fabric mid-backoff — a
// re-promotion scan is journaled but capacity is still fully blocked —
// and requires the restored fabric to re-encode bit-exactly, carry the
// degraded population, and complete the recovery once capacity frees.
func TestPromotionSurvivesCheckpoint(t *testing.T) {
	n, victims := chainPromotionScenario(t, defaultOpen)

	if err := n.RestoreLink(0, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(3000) // backlog drains; restore-triggered ladder exhausted against it
	// Refill the round, then shrink one blocker: the scan that shrink
	// arms is journaled for the next cycle — and the fabric is killed
	// before it runs.
	var blockers []*Conn
	for {
		c, err := n.Open(0, 2, blockerSpec(320))
		if err != nil {
			break
		}
		blockers = append(blockers, c)
	}
	if len(blockers) != 4 {
		t.Fatalf("%d blockers admitted, want 4", len(blockers))
	}
	if err := n.ModifyBandwidth(blockers[0], 280*traffic.Mbps); err != nil {
		t.Fatal(err)
	}
	if got := n.DegradedLive(); got != len(victims) {
		t.Fatalf("%d victims promoted before the armed scan could run", len(victims)-got)
	}

	snap, err := n.EncodeState()
	if err != nil {
		t.Fatalf("EncodeState mid-backoff: %v", err)
	}
	path := filepath.Join(t.TempDir(), "promote.ckpt")
	if err := n.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	cfg2 := chainPromotionConfig(t)
	cfg2.NoIdleSkip = true
	n2, err := RestoreCheckpoint(cfg2, path)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	resnap, err := n2.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, resnap) {
		t.Fatalf("restored state re-encodes differently (%d vs %d bytes)", len(snap), len(resnap))
	}
	if got := n2.DegradedLive(); got != len(victims) {
		t.Fatalf("restored DegradedLive = %d, want %d", got, len(victims))
	}

	// The journaled scan fires in the restored fabric: the shrink freed
	// exactly one slot, so exactly one victim recovers.
	n2.Run(3000)
	if got := n2.DegradedLive(); got != len(victims)-1 {
		t.Fatalf("restored DegradedLive = %d after the journaled scan, want %d", got, len(victims)-1)
	}
	if st := n2.Stats(); st.ConnsPromoted != 1 {
		t.Fatalf("restored ConnsPromoted = %d after the journaled scan, want 1", st.ConnsPromoted)
	}

	// Free the rest of the capacity. The close-triggered scans race the
	// fallback backlog that rebuilt while the round was full, so after
	// the drain one more trigger settles any stragglers.
	for _, c := range n2.Conns() {
		if c.Open() {
			if err := n2.DrainAndClose(c, 5000); err != nil {
				t.Fatalf("close blocker in restored fabric: %v", err)
			}
		}
	}
	n2.Run(3000)
	dummy, err := n2.Open(0, 2, victimSpec())
	if err != nil {
		t.Fatalf("dummy open in restored fabric: %v", err)
	}
	if err := n2.Close(dummy); err != nil {
		t.Fatal(err)
	}
	n2.Run(2000)
	if got := n2.DegradedLive(); got != 0 {
		t.Fatalf("restored fabric left %d sessions degraded after capacity freed", got)
	}
	if st := n2.Stats(); st.ConnsPromoted != int64(len(victims)) {
		t.Fatalf("restored ConnsPromoted = %d, want %d", st.ConnsPromoted, len(victims))
	}
	if err := n2.CheckBEFlowOwners(); err != nil {
		t.Fatal(err)
	}
	if err := n2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRefusesPreviousVersion: testdata/v6-faults.ckpt is a real
// format-6 file — the faulted detScenario fabric at cycle 1200, as the last
// format-6 build wrote it — and it is refused with a clean version error by
// every way in: the file, the sealed bytes, the explicit-version restore.
// The refusals touch no state: the target fabric then takes the format-7
// golden of the same fabric and re-encodes it exactly.
func TestCheckpointRefusesPreviousVersion(t *testing.T) {
	path := filepath.Join("testdata", "v6-faults.ckpt")
	v6, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ver := binary.LittleEndian.Uint32(v6[8:12]); ver != 6 {
		t.Fatalf("%s is format version %d, want 6", path, ver)
	}
	wantVersionErr := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "version 6") {
			t.Fatalf("%s: got %v, want a format-version error", what, err)
		}
	}
	_, err = RestoreCheckpoint(detConfig(t, false), path)
	wantVersionErr("RestoreCheckpoint", err)
	_, _, _, err = checkpoint.Open(v6)
	wantVersionErr("checkpoint.Open", err)

	n, err := New(detConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	wantVersionErr("RestoreStateVersion", n.RestoreStateVersion(v6[32:], 6)) // past the 32-byte envelope header
	golden := goldenPayload(t, "v7-faults.ckpt")
	if err := n.RestoreStateVersion(golden, checkpoint.Version); err != nil {
		t.Fatalf("restore after the refusal: %v", err)
	}
	reenc, err := n.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, reenc) {
		t.Fatal("fabric restored after a refused format-6 attempt re-encodes differently")
	}
}

// promoteDetScenario runs a loaded 4×4 mesh whose fault plan takes
// router 5 down long enough for the short retry ladder to exhaust (its
// hosts' sessions degrade) and then repairs it (they re-promote), and
// returns the end-state encoding plus statistics.
func promoteDetScenario(t *testing.T, noIdleSkip, promote bool) ([]byte, *Stats) {
	t.Helper()
	tp, err := topology.Mesh(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.Seed = 11
	cfg.NoIdleSkip = noIdleSkip
	cfg.Fault = FaultPolicy{Restore: true, MaxRetries: 2, RetryBackoff: 16, Degrade: true, Promote: promote, Paranoid: true}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(99)
	for i, opened := 0, 0; i < 300 && opened < 48; i++ {
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
	for i := 0; i < 12; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src != dst {
			n.AddBestEffortFlow(src, dst, 0.01)
		}
	}
	plan := faults.NewPlan(3).
		FailRouterAt(300, 5).
		RestoreRouterAt(1500, 5).
		FailLinkAt(600, 10, 1).
		RestoreLinkAt(1700, 10, 1)
	if err := n.ApplyPlan(plan, 3000); err != nil {
		t.Fatal(err)
	}
	n.Run(3500)
	b, err := n.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	return b, n.Stats()
}

// TestPromotionDeterminism: with promotion on or off, the end state is
// bit-identical with gating on and off — the scan rides the event path
// between cycles, so which nodes a cycle visits cannot reorder it.
func TestPromotionDeterminism(t *testing.T) {
	for _, promote := range []bool{false, true} {
		name := "off"
		if promote {
			name = "on"
		}
		t.Run(name, func(t *testing.T) {
			ref, st := promoteDetScenario(t, false, promote)
			if st.ConnsDegraded == 0 {
				t.Fatalf("degenerate scenario: nothing degraded (%+v)", st)
			}
			if promote && st.ConnsPromoted == 0 {
				t.Fatal("degenerate scenario: nothing promoted with promotion on")
			}
			if !promote && st.ConnsPromoted != 0 {
				t.Fatalf("ConnsPromoted = %d with promotion off", st.ConnsPromoted)
			}
			if b, _ := promoteDetScenario(t, true, promote); !bytes.Equal(ref, b) {
				t.Errorf("ungated end state diverged from gated (%d vs %d bytes)", len(ref), len(b))
			}
		})
	}
}

// TestModifyBandwidthLifecycleErrors: each refusal names the actual
// lifecycle state, so callers can tell retry-later (broken) from
// renegotiate (degraded) from give-up (closed, lost).
func TestModifyBandwidthLifecycleErrors(t *testing.T) {
	mk := func(policy FaultPolicy) (*Network, *Conn) {
		tp, err := topology.Mesh(3, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(tp)
		cfg.VCs = 8
		cfg.Fault = policy
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := n.Open(0, 2, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 10 * traffic.Mbps})
		if err != nil {
			t.Fatal(err)
		}
		return n, c
	}
	cases := []struct {
		name string
		prep func() (*Network, *Conn)
		want string
	}{
		{"closed", func() (*Network, *Conn) {
			n, c := mk(FaultPolicy{Paranoid: true})
			if err := n.Close(c); err != nil {
				t.Fatal(err)
			}
			return n, c
		}, "is closed"},
		{"lost", func() (*Network, *Conn) {
			n, c := mk(FaultPolicy{Restore: false, Degrade: false, Paranoid: true})
			if err := n.FailLink(0, 0); err != nil {
				t.Fatal(err)
			}
			n.Run(10)
			if !c.Lost() {
				t.Fatal("victim not lost")
			}
			return n, c
		}, "was lost"},
		{"degraded", func() (*Network, *Conn) {
			n, c := mk(FaultPolicy{Restore: false, Degrade: true, Promote: true, Paranoid: true})
			if err := n.FailLink(0, 0); err != nil {
				t.Fatal(err)
			}
			n.Run(10)
			if !c.Degraded {
				t.Fatal("victim not degraded")
			}
			return n, c
		}, "degraded to best-effort"},
		{"broken", func() (*Network, *Conn) {
			n, c := mk(FaultPolicy{Restore: true, MaxRetries: 2, RetryBackoff: 4096, Degrade: true, Paranoid: true})
			if err := n.FailLink(0, 0); err != nil {
				t.Fatal(err)
			}
			if !c.Broken() {
				t.Fatal("victim not broken")
			}
			return n, c
		}, "fault-broken"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, c := tc.prep()
			err := n.ModifyBandwidth(c, 20*traffic.Mbps)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ModifyBandwidth on %s conn: %v, want mention of %q", tc.name, err, tc.want)
			}
		})
	}
	t.Run("nil", func(t *testing.T) {
		n, _ := mk(FaultPolicy{Paranoid: true})
		if err := n.ModifyBandwidth(nil, 20*traffic.Mbps); err == nil || !strings.Contains(err.Error(), "nil connection") {
			t.Fatalf("ModifyBandwidth(nil): %v", err)
		}
	})
}
