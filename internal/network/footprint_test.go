package network

import (
	"runtime"
	"testing"
	"time"

	"mmr/internal/flit"
	"mmr/internal/routing"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// heapAfterGC returns live heap bytes after a full collection — the basis
// for all footprint math in this file.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func buildFatTreeNet(tb testing.TB, k int) *Network {
	tb.Helper()
	tp, err := topology.FatTree(k)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := New(DefaultConfig(tp))
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// footprint is the fabric's heap cost in three terms. A port's VC records
// and flit ring exist from its first reservation on, so an empty router
// costs PerRouter, each port holding a VC adds PerPort once, and a flow adds
// PerFlow on ports that already hold storage.
type footprint struct {
	PerRouter, PerPort, PerFlow float64
	Radix                       int // ports per router of the fitted fabric
}

// measureFootprint fits bytes/router from two empty fabric sizes (the delta
// cancels fixed process overhead), bytes per port from materializing every
// port of the larger one, and bytes/flow from a batched bring-up on it.
func measureFootprint(tb testing.TB) footprint {
	tb.Helper()
	base := heapAfterGC()
	small := buildFatTreeNet(tb, 8)
	afterSmall := heapAfterGC()
	big := buildFatTreeNet(tb, 16)
	afterBig := heapAfterGC()
	runtime.KeepAlive(small)

	var fp footprint
	smallNodes := topology.FatTreeNodes(8)
	bigNodes := topology.FatTreeNodes(16)
	fp.PerRouter = float64(afterBig-afterSmall) / float64(bigNodes-smallNodes)
	if afterSmall <= base || fp.PerRouter <= 0 {
		tb.Fatalf("implausible fabric footprint: base=%d small=%d big=%d", base, afterSmall, afterBig)
	}

	fp.Radix = big.cfg.radix()
	empty := heapAfterGC()
	for _, nd := range big.nodes {
		for p, mem := range nd.Mems {
			// The port's VC storage, then the rows its first use writes: a
			// mapping rooted at it and leaving by it.
			mem.Materialize()
			ref := routing.VCRef{Port: p}
			if err := nd.cmap.Map(ref, ref); err != nil {
				tb.Fatal(err)
			}
			nd.cmap.Unmap(ref)
		}
	}
	fp.PerPort = float64(heapAfterGC()-empty) / float64(bigNodes*fp.Radix)

	spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: 1 * traffic.Mbps}
	reqs := batchReqs(bigNodes, 40, spec) // 40 sessions per router
	before := heapAfterGC()
	res := big.OpenBatch(reqs)
	after := heapAfterGC()
	opened := 0
	for _, r := range res {
		if r.Err == nil {
			opened++
		}
	}
	if opened < len(reqs)*9/10 {
		tb.Fatalf("flow footprint needs a mostly-accepted workload: %d/%d opened", opened, len(reqs))
	}
	fp.PerFlow = float64(after-before) / float64(opened)
	runtime.KeepAlive(big)
	return fp
}

// TestFabricFootprintBudget holds the fitted heap cost under absolute
// ceilings, 1.2× the measured 55.8 kB/router, 6,144 B/port and 621 B/flow
// (bytes are host-independent, so this gates on any runner), and
// extrapolates the fit to the datacenter target with every port holding its
// VC storage: 4096 routers carrying one million flows must fit in well
// under 4 GB of state.
func TestFabricFootprintBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint fit is slow under -short")
	}
	fp := measureFootprint(t)
	const maxPerRouter, maxPerPort, maxPerFlow = 67_000, 7_400, 745
	const routers, flows = 4096, 1e6
	total := (fp.PerRouter+float64(fp.Radix)*fp.PerPort)*routers + fp.PerFlow*flows
	const budget = 4 << 30
	t.Logf("fit: %.0f bytes/router, %.0f bytes/port, %.0f bytes/flow → %.2f GB at %d routers × %d ports / %g flows",
		fp.PerRouter, fp.PerPort, fp.PerFlow, total/(1<<30), routers, fp.Radix, float64(flows))
	for _, c := range []struct {
		what      string
		got, ceil float64
	}{{"bytes/router", fp.PerRouter, maxPerRouter}, {"bytes/port", fp.PerPort, maxPerPort}, {"bytes/flow", fp.PerFlow, maxPerFlow}} {
		if c.got > c.ceil {
			t.Errorf("%.0f %s exceeds the %.0f ceiling", c.got, c.what, c.ceil)
		}
	}
	if total >= budget {
		t.Errorf("extrapolated fabric state %.2f GB exceeds the 4 GB budget", total/(1<<30))
	}
}

// TestVCStorageOnFirstUse: New gives no port its VC records and flit ring,
// nor a channel-map row of its own — a FatTree(16) fabric at the defaults
// allocates at most 9.5 MB, where one with VC storage on every port took
// 48.3 MB and one with every port's rows 14.3 MB — and after
// fabric_sparse's bring-up the ports holding VC storage are exactly the ports
// holding a VC. A port holds a VC exactly where a mapping roots at it or
// the wired peer feeding it has a mapping leave by the link (a path's entry
// VC maps to its next hop, every later VC is the far end of a mapping at the
// router before it); routing's TestChannelMapMatchesReference checks that a
// port has a row of its own exactly where a mapping has rooted or left.
func TestVCStorageOnFirstUse(t *testing.T) {
	if testing.Short() {
		t.Skip("FatTree(16) bring-up is slow under -short")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := buildFatTreeNet(t, 16)
	runtime.ReadMemStats(&after)
	newBytes := after.TotalAlloc - before.TotalAlloc
	if newBytes > 19<<19 {
		t.Errorf("New(FatTree(16)) allocated %d bytes, more than 9.5 MB", newBytes)
	}
	if got := materializedPorts(n); got != 0 {
		t.Errorf("New gave %d ports their VC storage", got)
	}
	runtime.KeepAlive(n)

	n = buildSparse(t, 16, 4, 512, false)
	held, reserved := 0, 0
	for _, nd := range n.nodes {
		for p, mem := range nd.Mems {
			if mem.Materialized() {
				held++
			}
			if mem.ReservedVector().Any() {
				reserved++
				if !mem.Materialized() {
					t.Fatalf("node %d port %d holds a VC and no records", nd.id, p)
				}
			}
		}
	}
	if held != reserved {
		t.Errorf("after bring-up %d ports hold VC storage, %d hold a VC", held, reserved)
	}

	rows := 0
	for _, nd := range n.nodes {
		for p, mem := range nd.Mems {
			var mapsIn, mapsOut, fed bool
			peer := nd.outPeer[p]
			for v := 0; v < n.cfg.VCs; v++ {
				ref := routing.VCRef{Port: p, VC: v}
				mapsIn = mapsIn || nd.cmap.Direct(ref) != routing.Invalid
				mapsOut = mapsOut || nd.cmap.Reverse(ref) != routing.Invalid
				if peer >= 0 {
					fed = fed || n.nodes[peer].cmap.Reverse(routing.VCRef{Port: n.cfg.Topology.WiredPeer(nd.id, p), VC: v}) != routing.Invalid
				}
			}
			if holds := mem.ReservedVector().Any(); holds != (mapsIn || fed) {
				t.Fatalf("node %d port %d: holds a VC=%v, roots a mapping=%v, its peer has a mapping leave by the link=%v", nd.id, p, holds, mapsIn, fed)
			}
			// A row is carved where a mapping roots or leaves, and only
			// there (TestChannelMapMatchesReference).
			for _, has := range []bool{mapsIn, mapsOut} {
				if has {
					rows++
				}
			}
		}
	}
	t.Logf("New allocated %d bytes; %d of %d ports hold VC storage after bring-up, with %d channel-map rows",
		newBytes, held, len(n.nodes)*n.cfg.radix(), rows)
}

// materializedPorts counts the ports of n that hold their VC storage.
func materializedPorts(n *Network) int {
	k := 0
	for _, nd := range n.nodes {
		for _, mem := range nd.Mems {
			if mem.Materialized() {
				k++
			}
		}
	}
	return k
}

// TestLargeFabricSmoke is the CI large-fabric job: a 1280-router
// fat tree (k=32) brought up with >100k batched sessions, stepped,
// checkpointed and audited, with the heap held to a few GB. Compact buffering
// (Depth=2, K=1) keeps the datapath arrays proportionate to the scale.
func TestLargeFabricSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-fabric smoke is slow under -short")
	}
	tp, err := topology.FatTree(32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.VCs = 256
	cfg.Depth = 2
	cfg.K = 1
	// Paranoid stays as shipped: no fault or bandwidth change below would
	// trigger an audit, so the one audit is the explicit call after the
	// checkpoint — over every VC, hop and output of the fabric.
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Nodes != 1280 {
		t.Fatalf("FatTree(32) should have 1280 routers, has %d", tp.Nodes)
	}

	// Hosts attach at edge routers, as in a real fat tree — sessions
	// sourced or sunk at aggregation/core routers would funnel their
	// transit through each pod's first edge router and saturate it.
	const k = 32
	var edges []int
	for p := 0; p < k; p++ {
		for i := 0; i < k/2; i++ {
			edges = append(edges, p*k+i)
		}
	}

	// alloc = 1 cycle/round per session: rate just under Bandwidth/roundLen.
	roundLen := cfg.K * cfg.VCs
	rate := traffic.Rate(float64(cfg.Link.Bandwidth) * 0.9 / float64(roundLen))
	spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: rate}
	var reqs []OpenReq // 196 shells × 512 edge routers = 100,352 sessions
	for s := 1; s <= 196; s++ {
		for i, src := range edges {
			reqs = append(reqs, OpenReq{Src: src, Dst: edges[(i+s)%len(edges)], Spec: spec})
		}
	}
	res := n.OpenBatch(reqs)
	opened := 0
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("session %d (%d→%d): %v", i, reqs[i].Src, reqs[i].Dst, r.Err)
		}
		opened++
	}
	if opened < 100_000 {
		t.Fatalf("smoke target is ≥100k sessions, opened %d", opened)
	}

	n.Run(int64(2 * roundLen))
	if s := n.Stats(); s.FlitsDelivered == 0 {
		t.Fatal("no flits delivered on the large fabric")
	}
	blob, err := n.EncodeState()
	if err != nil {
		t.Fatalf("checkpoint at scale: %v", err)
	}
	if len(blob) == 0 {
		t.Fatal("empty checkpoint")
	}
	start := time.Now()
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("audit at scale: %v", err)
	}
	audit := time.Since(start)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 3<<30 {
		t.Fatalf("heap %d bytes exceeds the 3 GB smoke bound", ms.HeapAlloc)
	}
	t.Logf("1280 routers, %d sessions, %d-byte checkpoint, audit %v, heap %.2f GB",
		opened, len(blob), audit.Round(time.Millisecond), float64(ms.HeapAlloc)/(1<<30))
}
