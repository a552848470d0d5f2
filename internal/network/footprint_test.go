package network

import (
	"runtime"
	"testing"
	"time"

	"mmr/internal/flit"
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

// measureFootprint fits bytes/router from two fabric sizes (the delta
// cancels fixed process overhead) and bytes/flow from a batched bring-up
// on the larger fabric.
func measureFootprint(tb testing.TB) (bytesPerRouter, bytesPerFlow float64) {
	tb.Helper()
	base := heapAfterGC()
	small := buildFatTreeNet(tb, 8)
	afterSmall := heapAfterGC()
	big := buildFatTreeNet(tb, 16)
	afterBig := heapAfterGC()
	runtime.KeepAlive(small)

	smallNodes := topology.FatTreeNodes(8)
	bigNodes := topology.FatTreeNodes(16)
	bytesPerRouter = float64(afterBig-afterSmall) / float64(bigNodes-smallNodes)
	if afterSmall <= base || bytesPerRouter <= 0 {
		tb.Fatalf("implausible fabric footprint: base=%d small=%d big=%d", base, afterSmall, afterBig)
	}

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
	bytesPerFlow = float64(after-before) / float64(opened)
	runtime.KeepAlive(big)
	return bytesPerRouter, bytesPerFlow
}

// TestFabricFootprintBudget holds the fitted per-router and per-flow heap
// cost under absolute ceilings (bytes are host-independent, so this gates
// on any runner; 1.2× headroom over the measured 201 kB/router, ~2× over
// 621 B/flow) and extrapolates the fit to the datacenter target: 4096
// routers carrying one million flows must fit in well under 4 GB of state.
func TestFabricFootprintBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint fit is slow under -short")
	}
	bpr, bpf := measureFootprint(t)
	const maxBytesPerRouter, maxBytesPerFlow = 240_000, 1_200
	const routers, flows = 4096, 1e6
	total := bpr*routers + bpf*flows
	const budget = 4 << 30
	t.Logf("fit: %.0f bytes/router, %.0f bytes/flow → %.2f GB at %d routers / %g flows",
		bpr, bpf, total/(1<<30), routers, float64(flows))
	if bpr > maxBytesPerRouter {
		t.Errorf("%.0f bytes/router exceeds the %d ceiling", bpr, maxBytesPerRouter)
	}
	if bpf > maxBytesPerFlow {
		t.Errorf("%.0f bytes/flow exceeds the %d ceiling", bpf, maxBytesPerFlow)
	}
	if total >= budget {
		t.Errorf("extrapolated fabric state %.2f GB exceeds the 4 GB budget", total/(1<<30))
	}
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
