package network

import (
	"bytes"
	"reflect"
	"testing"

	"mmr/internal/admission"
	"mmr/internal/flit"
	"mmr/internal/routing"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// batchReqs builds an all-to-some request list over a fabric: shell s
// gives every router one outgoing session to the router s+1 positions
// ahead, so sources and destinations stay evenly loaded.
func batchReqs(nodes, shells int, spec traffic.ConnSpec) []OpenReq {
	var reqs []OpenReq
	for s := 1; s <= shells; s++ {
		for src := 0; src < nodes; src++ {
			reqs = append(reqs, OpenReq{Src: src, Dst: (src + s) % nodes, Spec: spec})
		}
	}
	return reqs
}

// TestOpenBatchMatchesSerial asserts OpenBatch is bit-exact with opening
// the same requests one at a time, under every route mode, with tenant
// quotas and capacity no pre-check sees refusing part of the list: same
// accept set, same paths, same VCs, same RNG position and byte-identical
// checkpoints — straight after bring-up and again after a fault sequence
// has pushed both fabrics through restoration, degradation and
// re-promotion (which run the same establishment engine on existing
// sessions). prechecksMatchSerial then holds each route mode to what it
// promises on a list the pre-checks do refuse part of.
func TestOpenBatchMatchesSerial(t *testing.T) {
	for _, route := range []routing.RouteMode{routing.RouteMinimal, routing.RouteValiant, routing.RouteUGAL} {
		t.Run(route.String(), func(t *testing.T) {
			batchMatchesSerial(t, route)
			prechecksMatchSerial(t, route)
		})
	}
}

func batchMatchesSerial(t *testing.T, route routing.RouteMode) {
	build := func() *Network {
		tp, err := topology.FatTree(4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(tp)
		cfg.Route = route
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Tenants().SetQuota("capped", admission.TenantQuota{MaxSessions: 7})
		return n
	}
	// Three light shells (every third request on a tenant that runs out
	// of sessions), then a heavy tail that saturates edge router 0's two
	// uplinks — a shortage no pre-check sees, so the refused requests
	// search (and draw) in both fabrics.
	reqs := batchReqs(topology.FatTreeNodes(4), 3, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 8 * traffic.Mbps})
	for i := range reqs {
		if i%3 == 0 {
			reqs[i].Tenant = "capped"
		}
	}
	for dst := 8; dst < 20; dst++ {
		reqs = append(reqs, OpenReq{Src: 0, Dst: dst, Spec: traffic.ConnSpec{Class: flit.ClassCBR, Rate: 400 * traffic.Mbps}})
	}

	serial, batched := build(), build()
	res := batched.OpenBatch(reqs)
	accepted := 0
	for i, r := range reqs {
		_, err := openAs(serial, r.Tenant, r.Src, r.Dst, r.Spec)
		if (err == nil) != (res[i].Err == nil) {
			t.Fatalf("request %d: one at a time %v, batched %v", i, err, res[i].Err)
		}
		if err == nil {
			accepted++
		}
	}
	if accepted < 40 || accepted > len(reqs)-16 {
		t.Fatalf("accepted %d of %d: the list should straddle the tenant and capacity limits", accepted, len(reqs))
	}
	sc, bc := serial.Conns(), batched.Conns()
	if len(sc) != len(bc) {
		t.Fatalf("conn counts differ: %d vs %d", len(sc), len(bc))
	}
	for i := range sc {
		a, b := sc[i], bc[i]
		if a.SetupTime != b.SetupTime || a.Backtracks != b.Backtracks || a.Tenant != b.Tenant ||
			!reflect.DeepEqual(a.Path, b.Path) || !reflect.DeepEqual(a.VCs, b.VCs) || !reflect.DeepEqual(a.Nodes, b.Nodes) {
			t.Fatalf("conn %d differs: %+v vs %+v", i, a, b)
		}
	}
	same := func(when string) {
		t.Helper()
		if serial.rng.State() != batched.rng.State() {
			t.Fatalf("%s: master RNG positions differ", when)
		}
		sb, err := serial.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		bb, err := batched.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb, bb) {
			t.Fatalf("%s: checkpoints differ", when)
		}
	}
	same("after bring-up")
	serial.Run(2000)
	batched.Run(2000)
	same("after 2000 cycles")

	// Cut edge router 0 off (its sessions cannot be restored and degrade)
	// and one aggregation–core link (its sessions restore elsewhere), then
	// repair everything (the degraded sessions are re-promoted).
	for _, n := range []*Network{serial, batched} {
		for _, l := range [][2]int{{0, 2}, {0, 3}, {9, 2}} {
			if err := n.FailLink(l[0], l[1]); err != nil {
				t.Fatal(err)
			}
		}
		n.Run(4000)
	}
	same("after the faults")
	for _, n := range []*Network{serial, batched} {
		for _, l := range [][2]int{{0, 2}, {0, 3}, {9, 2}} {
			if err := n.RestoreLink(l[0], l[1]); err != nil {
				t.Fatal(err)
			}
		}
		n.Run(4000)
	}
	same("after the repairs")
	st := batched.Stats()
	if st.ConnsRestored == 0 || st.ConnsDegraded == 0 || st.ConnsPromoted == 0 {
		t.Fatalf("fault sequence too gentle: %d restored, %d degraded, %d promoted", st.ConnsRestored, st.ConnsDegraded, st.ConnsPromoted)
	}
	if err := batched.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// prechecksMatchSerial runs a request list the batch's pre-checks do refuse
// part of — a hot destination's ejection headroom and one source's entry VCs
// run out, with other sessions opening after each refusal — through OpenBatch
// and through one-at-a-time opens. Every route mode gets the same accept set,
// per-hop ports, setup times and backtracks. Under Valiant and UGAL routing the batch builds
// no pre-check tables, so every request draws from the master RNG as a serial
// one does and the fabrics end byte-equal; under minimal routing a refused
// request draws nothing, so later sessions may hold other VCs.
func prechecksMatchSerial(t *testing.T, route routing.RouteMode) {
	build := func() *Network {
		tp, err := topology.FatTree(4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(tp)
		cfg.Route, cfg.VCs, cfg.K = route, 8, 4
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	nodes, hot := topology.FatTreeNodes(4), 9
	var reqs []OpenReq
	for i := 0; i < 120; i++ {
		src := (i * 7) % nodes
		switch {
		case i%3 == 0 && src != hot:
			reqs = append(reqs, OpenReq{Src: src, Dst: hot, Spec: traffic.ConnSpec{Class: flit.ClassCBR, Rate: 100 * traffic.Mbps}})
		case i%3 == 1:
			reqs = append(reqs, OpenReq{Src: 0, Dst: 1 + i%(nodes-1), Spec: traffic.ConnSpec{Class: flit.ClassCBR, Rate: 1 * traffic.Mbps}})
		case src != (src+5)%nodes:
			reqs = append(reqs, OpenReq{Src: src, Dst: (src + 5) % nodes, Spec: traffic.ConnSpec{Class: flit.ClassCBR, Rate: 8 * traffic.Mbps}})
		}
	}
	serial, batched := build(), build()
	res := batched.OpenBatch(reqs)
	var prechecked int
	for i, r := range reqs {
		_, err := serial.Open(r.Src, r.Dst, r.Spec)
		if (err == nil) != (res[i].Err == nil) {
			t.Fatalf("request %d: one at a time %v, batched %v", i, err, res[i].Err)
		}
		if _, ok := res[i].Err.(*precheckError); ok {
			prechecked++
		}
	}
	if route == routing.RouteMinimal && prechecked == 0 {
		t.Fatal("no request was refused by a pre-check")
	}
	sc, bc := serial.Conns(), batched.Conns()
	if len(sc) != len(bc) || len(sc) < 20 {
		t.Fatalf("conn counts %d and %d", len(sc), len(bc))
	}
	for i := range sc {
		a, b := sc[i], bc[i]
		if !reflect.DeepEqual(a.Path, b.Path) || a.SetupTime != b.SetupTime || a.Backtracks != b.Backtracks {
			t.Fatalf("conn %d: ports %v, setup %d, %d backtracks one at a time; %v, %d, %d batched",
				i, a.Path, a.SetupTime, a.Backtracks, b.Path, b.SetupTime, b.Backtracks)
		}
	}
	if route == routing.RouteMinimal {
		return
	}
	if serial.rng.State() != batched.rng.State() {
		t.Fatal("master RNG positions differ")
	}
	sb, err := serial.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := batched.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, bb) {
		t.Fatal("checkpoints differ")
	}
}

// TestOpenBatchPrecheckExact asserts the pre-checks reject exactly the
// requests serial establishment would reject, for the two
// placement-independent resources they model exactly: source entry VCs
// and destination ejection bandwidth.
func TestOpenBatchPrecheckExact(t *testing.T) {
	tp, err := topology.Mesh(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.VCs = 8 // small enough to exhaust the source's entry VCs quickly
	cfg.K = 4

	// Destination ejection saturation: the host output port admits
	// roundLen guaranteed cycles; drive one destination past it.
	spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: 100 * traffic.Mbps}
	serial, _ := New(cfg)
	batched, _ := New(cfg)
	var reqs []OpenReq
	for src := 0; src < tp.Nodes-1; src++ {
		for k := 0; k < 3; k++ {
			reqs = append(reqs, OpenReq{Src: src, Dst: tp.Nodes - 1, Spec: spec})
		}
	}
	pattern := make([]bool, len(reqs))
	for i, r := range reqs {
		_, err := serial.Open(r.Src, r.Dst, r.Spec)
		pattern[i] = err == nil
	}
	res := batched.OpenBatch(reqs)
	accepted := 0
	for i := range res {
		if (res[i].Err == nil) != pattern[i] {
			t.Fatalf("request %d: batch accept=%v, serial accept=%v (%v)",
				i, res[i].Err == nil, pattern[i], res[i].Err)
		}
		if res[i].Err == nil {
			accepted++
		}
	}
	if accepted == 0 || accepted == len(reqs) {
		t.Fatalf("saturation test did not straddle the admission limit (accepted %d/%d)", accepted, len(reqs))
	}

	// Source entry-VC exhaustion: only cfg.VCs sessions can originate at
	// one router.
	serial2, _ := New(cfg)
	batched2, _ := New(cfg)
	small := traffic.ConnSpec{Class: flit.ClassCBR, Rate: 1 * traffic.Mbps}
	var reqs2 []OpenReq
	for i := 0; i < cfg.VCs+4; i++ {
		reqs2 = append(reqs2, OpenReq{Src: 0, Dst: 1 + i%(tp.Nodes-1), Spec: small})
	}
	for i, r := range reqs2 {
		_, serr := serial2.Open(r.Src, r.Dst, r.Spec)
		pattern[i] = serr == nil
	}
	res2 := batched2.OpenBatch(reqs2)
	for i := range res2 {
		if (res2[i].Err == nil) != pattern[i] {
			t.Fatalf("vc-exhaustion request %d: batch accept=%v, serial accept=%v",
				i, res2[i].Err == nil, pattern[i])
		}
	}
}

// TestOpenBatchRegionalPrecheck asserts the border-capacity aggregate
// rejects cross-region demand that provably cannot fit, on the smallest
// fat tree (one border link per pod), and that serial establishment
// agrees.
func TestOpenBatchRegionalPrecheck(t *testing.T) {
	tp, err := topology.FatTree(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	roundLen := cfg.K * cfg.VCs
	// Each session demands just over a third of a round: two fit on the
	// single pod-0 border link, the third must be rejected.
	rate := traffic.Rate(float64(cfg.Link.Bandwidth) * 49.5 / float64(roundLen))
	spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: rate}
	d := demandFromRate(t, cfg, rate)
	if d*3 <= roundLen || d*2 > roundLen {
		t.Fatalf("demand %d does not straddle the border capacity %d", d, roundLen)
	}

	serial, _ := New(cfg)
	batched, _ := New(cfg)
	// Cross-pod: pod 0 (edge router 0) to pod 1 (edge router 2).
	reqs := []OpenReq{
		{Src: 0, Dst: 2, Spec: spec},
		{Src: 0, Dst: 2, Spec: spec},
		{Src: 0, Dst: 2, Spec: spec},
	}
	for i, r := range reqs {
		_, serr := serial.Open(r.Src, r.Dst, r.Spec)
		br := batched.OpenBatch([]OpenReq{r})
		if (serr == nil) != (br[0].Err == nil) {
			t.Fatalf("request %d: serial accept=%v, batch accept=%v", i, serr == nil, br[0].Err == nil)
		}
	}
	if got := batched.Stats().SetupRejected; got != 1 {
		t.Fatalf("expected exactly 1 rejection, got %d", got)
	}
}

func demandFromRate(t *testing.T, cfg Config, rate traffic.Rate) int {
	t.Helper()
	return cfg.Link.CyclesPerRound(rate, cfg.K*cfg.VCs)
}

// TestOpenBatchCheckpointRoundTrip asserts arena-backed connections
// survive a checkpoint/restore bit-exactly.
func TestOpenBatchCheckpointRoundTrip(t *testing.T) {
	tp, err := topology.Dragonfly(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: 8 * traffic.Mbps}
	res := n.OpenBatch(batchReqs(tp.Nodes, 2, spec))
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	n.Run(1500)
	blob, err := n.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	n.Run(1500)
	m.Run(1500)
	nb, err := n.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	mb, err := m.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if string(nb) != string(mb) {
		t.Fatal("restored fabric diverged from original after identical stepping")
	}
}

// TestRouteModesEstablish asserts Valiant and UGAL establishment works
// end to end on both generated fabrics: sessions come up, traffic flows,
// and two identically-seeded runs stay bit-exact.
func TestRouteModesEstablish(t *testing.T) {
	for _, mode := range []routing.RouteMode{routing.RouteValiant, routing.RouteUGAL} {
		run := func() []byte {
			tp, err := topology.FatTree(4)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(tp)
			cfg.Route = mode
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: 8 * traffic.Mbps}
			res := n.OpenBatch(batchReqs(tp.Nodes, 2, spec))
			for i, r := range res {
				if r.Err != nil {
					t.Fatalf("%v request %d: %v", mode, i, r.Err)
				}
			}
			n.Run(3000)
			if s := n.Stats(); s.FlitsDelivered == 0 {
				t.Fatalf("%v: no flits delivered", mode)
			}
			blob, err := n.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			return blob
		}
		if string(run()) != string(run()) {
			t.Fatalf("%v: identically-seeded runs diverged", mode)
		}
	}
}

// TestRouteModeChangesConfigHash asserts non-minimal route modes hash to
// distinct configurations while the minimal default preserves the
// pre-existing hash (old checkpoints stay loadable).
func TestRouteModeChangesConfigHash(t *testing.T) {
	tp, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	a, _ := New(cfg)
	cfg.Route = routing.RouteValiant
	b, _ := New(cfg)
	cfg.Route = routing.RouteUGAL
	c, _ := New(cfg)
	if a.ConfigHash() == b.ConfigHash() || b.ConfigHash() == c.ConfigHash() || a.ConfigHash() == c.ConfigHash() {
		t.Fatal("route modes must hash to distinct configurations")
	}
}

// TestPrecheckErrorText pins the text of every pre-check refusal kind: the
// daemon's 409 bodies and the soak's refusal histogram read it.
func TestPrecheckErrorText(t *testing.T) {
	for _, c := range []struct {
		err  precheckError
		want string
	}{
		{precheckError{kind: precheckNoEntryVC, node: 7}, "network: no free VC on host port of node 7"},
		{precheckError{kind: precheckNoEjection, node: 12, rate: 1.54 * traffic.Mbps}, "network: destination host port of node 12 cannot admit 1.54Mbps"},
		{precheckError{kind: precheckNoBorder, node: 3, rate: 64 * traffic.Kbps, dir: "outbound"}, "network: region 3 has no outbound border capacity for 64Kbps"},
		{precheckError{kind: precheckNoBorder, node: 0, rate: 120 * traffic.Mbps, dir: "inbound"}, "network: region 0 has no inbound border capacity for 120Mbps"},
	} {
		if got := c.err.Error(); got != c.want {
			t.Errorf("refusal kind %d: %q, want %q", c.err.kind, got, c.want)
		}
	}
}
