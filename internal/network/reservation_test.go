package network

import (
	"testing"

	"mmr/internal/admission"
	"mmr/internal/flit"
	"mmr/internal/router"
	"mmr/internal/topology"
	"mmr/internal/traffic"
	"mmr/internal/vcm"
)

// TestStreamReservationAgreesAcrossEngines holds the two engines to one
// meaning of a stream's reservation at a hop (§4.2–4.3): a router under
// allocation admission and a two-router fabric with the same VCs, K and
// link establish the same specs, and every stream VC must carry the same
// allocation, peak and aging interval, and every output the same two
// registers — after establishment, after each engine's rate renegotiation
// and, at zero, after teardown.
func TestStreamReservationAgreesAcrossEngines(t *testing.T) {
	const vcs, k = 16, 2
	rcfg := router.PaperConfig()
	rcfg.Ports = 4
	rcfg.VCM = vcm.Config{VirtualChannels: vcs, Depth: 4}
	rcfg.K = k
	rcfg.Admission = router.AdmitAllocation
	r, err := router.New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := topology.Mesh(2, 1, 4)
	ncfg := DefaultConfig(tp)
	ncfg.VCs, ncfg.K, ncfg.Concurrency = vcs, k, rcfg.Concurrency
	n, err := New(ncfg)
	if err != nil {
		t.Fatal(err)
	}

	specs := []traffic.ConnSpec{
		{Class: flit.ClassCBR, Rate: traffic.Mbps},
		{Class: flit.ClassCBR, Rate: 64 * traffic.Mbps},
		{Class: flit.ClassCBR, Rate: 155 * traffic.Mbps},
		{Class: flit.ClassVBR, Rate: 10 * traffic.Mbps, PeakRate: 40 * traffic.Mbps},
		{Class: flit.ClassVBR, Rate: 100 * traffic.Mbps, PeakRate: 10 * traffic.Mbps}, // peak below rate
	}
	var rconns []*router.Connection
	var nconns []*Conn
	for _, spec := range specs {
		spec.In, spec.Out = 0, 1
		rc, err := r.Establish(spec)
		if err != nil {
			t.Fatalf("router: %v: %v", spec, err)
		}
		nc, err := n.Open(0, 1, spec)
		if err != nil {
			t.Fatalf("fabric: %v: %v", spec, err)
		}
		rconns, nconns = append(rconns, rc), append(nconns, nc)
	}
	// The fabric's outputs: node 0 toward node 1, node 1 to its host.
	outs := []*admission.LinkAllocator{n.nodes[0].Alloc[nconns[0].Path[0].Port], n.nodes[1].Alloc[ncfg.hostPort()]}
	compare := func(when string) {
		t.Helper()
		for i, rc := range rconns {
			want := *r.Memory(0).State(rc.VC)
			nc := nconns[i]
			for h, ref := range nc.VCs {
				got := n.nodes[nc.Nodes[h]].Mems[ref.Port].State(ref.VC)
				if got.Allocated != want.Allocated || got.Peak != want.Peak || got.InterArrival != want.InterArrival {
					t.Fatalf("%s: conn %d hop %d: fabric VC (alloc %d, peak %d, interval %v), router VC (%d, %d, %v)",
						when, i, h, got.Allocated, got.Peak, got.InterArrival, want.Allocated, want.Peak, want.InterArrival)
				}
			}
		}
		ra := r.Allocator(1)
		for o, a := range outs {
			if a.Guaranteed() != ra.Guaranteed() || a.PeakTotal() != ra.PeakTotal() {
				t.Fatalf("%s: fabric output %d registers (%d, %d), router (%d, %d)",
					when, o, a.Guaranteed(), a.PeakTotal(), ra.Guaranteed(), ra.PeakTotal())
			}
		}
	}
	compare("established")
	if ra := r.Allocator(1); ra.Guaranteed() == 0 || ra.PeakTotal() == 0 {
		t.Fatalf("degenerate scenario: registers (%d, %d)", ra.Guaranteed(), ra.PeakTotal())
	}

	for _, step := range []struct {
		conn int
		rate traffic.Rate
	}{{0, 90 * traffic.Mbps}, {2, 20 * traffic.Mbps}, {1, 300 * traffic.Mbps}} {
		rc := rconns[step.conn]
		if err := r.SetBandwidth(rc, step.rate); err != nil {
			t.Fatal(err)
		}
		for i := 0; rc.Spec.Rate != step.rate; i++ {
			if i == 10 {
				t.Fatal("the bandwidth word never landed")
			}
			r.Step()
		}
		if err := n.ModifyBandwidth(nconns[step.conn], step.rate); err != nil {
			t.Fatal(err)
		}
		compare("retuned")
	}

	for i, rc := range rconns {
		for tries := 0; ; tries++ {
			err := r.Release(rc)
			if err == nil {
				break
			}
			if tries == 1000 {
				t.Fatal(err)
			}
			r.Step()
		}
		if err := n.DrainAndClose(nconns[i], 10000); err != nil {
			t.Fatal(err)
		}
	}
	for o, a := range append(outs, r.Allocator(1)) {
		if a.Guaranteed() != 0 || a.PeakTotal() != 0 {
			t.Fatalf("output %d registers (%d, %d) after teardown", o, a.Guaranteed(), a.PeakTotal())
		}
	}
}
