package network

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mmr/internal/admission"
	"mmr/internal/flit"
	"mmr/internal/routing"
	"mmr/internal/sim"
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
// the same requests one at a time, under every route mode: same accept
// set, same paths, same VCs, same RNG position and byte-identical
// checkpoints. batchMatchesSerial runs a list tenant quotas and a
// saturated uplink refuse part of, then pushes both fabrics through
// restoration, degradation and re-promotion (which run the same
// establishment engine on existing sessions); earlyRefusalsMatchSerial
// runs a list the early refusals turn part of down.
func TestOpenBatchMatchesSerial(t *testing.T) {
	for _, route := range []routing.RouteMode{routing.RouteMinimal, routing.RouteValiant, routing.RouteUGAL} {
		t.Run(route.String(), func(t *testing.T) {
			batchMatchesSerial(t, route)
			earlyRefusalsMatchSerial(t, route)
		})
	}
}

// sameFabric fails unless a and b hold the master RNG at the same position
// and encode to the same checkpoint bytes.
func sameFabric(t *testing.T, when string, a, b *Network) {
	t.Helper()
	if a.rng.State() != b.rng.State() {
		t.Fatalf("%s: master RNG positions differ", when)
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
		t.Fatalf("%s: checkpoints differ", when)
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
	// uplinks — a shortage only the search finds, so the refused requests
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
	sameFabric(t, "after bring-up", serial, batched)
	serial.Run(2000)
	batched.Run(2000)
	sameFabric(t, "after 2000 cycles", serial, batched)

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
	sameFabric(t, "after the faults", serial, batched)
	for _, n := range []*Network{serial, batched} {
		for _, l := range [][2]int{{0, 2}, {0, 3}, {9, 2}} {
			if err := n.RestoreLink(l[0], l[1]); err != nil {
				t.Fatal(err)
			}
		}
		n.Run(4000)
	}
	sameFabric(t, "after the repairs", serial, batched)
	st := batched.Stats()
	if st.ConnsRestored == 0 || st.ConnsDegraded == 0 || st.ConnsPromoted == 0 {
		t.Fatalf("fault sequence too gentle: %d restored, %d degraded, %d promoted", st.ConnsRestored, st.ConnsDegraded, st.ConnsPromoted)
	}
	if err := batched.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// refusedEarly reports whether an open that failed with err, moving the
// master RNG from before to after, was turned down by preAdmit's early
// refusal: the entry-VC or ejection text, and no draw. A refusal the
// reservation reaches draws first — the entry VC's pick, the search's
// hops, a multipath candidate.
func refusedEarly(err error, before, after sim.RNGState) bool {
	if err == nil || before != after {
		return false
	}
	return refusedEarlyText(err)
}

// refusedEarlyText reports whether err has the text of one of the two early
// refusals (which the reservation's entry-VC pick and ejection admission
// share).
func refusedEarlyText(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "no free VC on host port") || strings.Contains(msg, "cannot admit")
}

// earlyRefusalsMatchSerial runs a request list the early refusals turn part
// of down — a hot destination's ejection headroom and one source's entry VCs
// run out, with other sessions opening after each refusal — through OpenBatch
// and through one-at-a-time opens. Every route mode gets the same accept set,
// the same master RNG position and byte-equal fabrics. At least one request
// must be refused early, or the list does not reach what it is for.
func earlyRefusalsMatchSerial(t *testing.T, route routing.RouteMode) {
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
	early := 0
	for i, r := range reqs {
		before := serial.rng.State()
		_, err := serial.Open(r.Src, r.Dst, r.Spec)
		if (err == nil) != (res[i].Err == nil) {
			t.Fatalf("request %d: one at a time %v, batched %v", i, err, res[i].Err)
		}
		if refusedEarly(err, before, serial.rng.State()) {
			early++
		}
	}
	if early == 0 {
		t.Fatal("no request was refused early")
	}
	if n := len(serial.Conns()); n < 20 {
		t.Fatalf("only %d sessions opened", n)
	}
	sameFabric(t, "after bring-up", serial, batched)
}

// TestOpenBatchPrecheckExact asserts the early refusal is exact: every
// request it turns down, a reservation on a copy of the fabric restored
// from its checkpoint must also fail to place, and a demand exactly equal
// to the destination's ejection headroom passes it and opens. The list
// drives one destination's ejection past its round, then one source's
// entry VCs, so both refusals are reached.
func TestOpenBatchPrecheckExact(t *testing.T) {
	tp, err := topology.Mesh(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.VCs, cfg.K = 8, 4 // few VCs, so a source's entry VCs run out
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot := tp.Nodes - 1
	spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: 100 * traffic.Mbps}
	var reqs []OpenReq
	for src := 0; src < hot; src++ {
		for k := 0; k < 3; k++ {
			reqs = append(reqs, OpenReq{Src: src, Dst: hot, Spec: spec})
		}
	}
	for i := 0; i < cfg.VCs+4; i++ {
		reqs = append(reqs, OpenReq{Src: 1, Dst: 2 + i%(hot-2), Spec: traffic.ConnSpec{Class: flit.ClassCBR, Rate: 1 * traffic.Mbps}})
	}

	refused := map[string]int{}
	for i, req := range reqs {
		blob, err := n.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		cp, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.RestoreState(blob); err != nil {
			t.Fatal(err)
		}
		if early := cp.refuseEarly(req, cp.demandFor(req.Spec)); early != nil {
			l := &cp.sync
			l.begin(cp, req, cp.demandFor(req.Spec))
			if err := cp.reservePath(l); err == nil {
				t.Fatalf("request %d (%d→%d): refused early (%v), but a reservation places it", i, req.Src, req.Dst, early)
			}
			msg := early.Error()
			refused[msg[:strings.Index(msg, " of node")]]++
			if _, err := n.Open(req.Src, req.Dst, req.Spec); err == nil || err.Error() != msg {
				t.Fatalf("request %d: the copy refused it early with %v, the fabric answered %v", i, early, err)
			}
			continue
		}
		if _, err := n.Open(req.Src, req.Dst, req.Spec); err != nil && refusedEarlyText(err) {
			t.Fatalf("request %d: the early refusal passed it, then the fabric refused it at its entry VC or ejection: %v", i, err)
		}
	}
	if refused["network: no free VC on host port"] == 0 || refused["network: destination host port"] == 0 {
		t.Fatalf("refusals by kind %v: the list must reach both", refused)
	}

	// The boundary: a demand of exactly the hot destination's remaining
	// headroom fits, from a source whose two minimal paths into it share
	// the inbound links' room.
	hp := cfg.hostPort()
	h := n.nodes[hot].Alloc[hp].Headroom()
	if h == 0 {
		t.Fatal("the hot destination's ejection is full: no boundary to test")
	}
	rate := rateForCycles(t, n, h)
	req := OpenReq{Src: hot - 5, Dst: hot, Spec: traffic.ConnSpec{Class: flit.ClassCBR, Rate: rate}}
	if err := n.refuseEarly(req, n.demandFor(req.Spec)); err != nil {
		t.Fatalf("a demand of %d cycles, the destination's headroom, is refused early: %v", h, err)
	}
	if _, err := n.Open(req.Src, req.Dst, req.Spec); err != nil {
		t.Fatalf("a demand of %d cycles, the destination's headroom, does not open: %v", h, err)
	}
	if got := n.nodes[hot].Alloc[hp].Headroom(); got != 0 {
		t.Fatalf("after the boundary session the destination has %d cycles left, want 0", got)
	}
}

// rateForCycles returns the least CBR rate whose demand is exactly cycles
// a round: demand rounds up and grows with the rate, so the bisection's
// upper end converges on the rate where it first reaches cycles.
func rateForCycles(t *testing.T, n *Network, cycles int) traffic.Rate {
	t.Helper()
	demand := func(r traffic.Rate) int { return n.demandFor(traffic.ConnSpec{Class: flit.ClassCBR, Rate: r}).Alloc }
	lo, hi := traffic.Rate(0), n.cfg.Link.Bandwidth
	for i := 0; i < 200 && hi-lo > 1e-6; i++ {
		if mid := (lo + hi) / 2; demand(mid) >= cycles {
			hi = mid
		} else {
			lo = mid
		}
	}
	if demand(hi) != cycles {
		t.Fatalf("no rate demands exactly %d cycles a round", cycles)
	}
	return hi
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
