package network

import (
	"testing"

	"mmr/internal/flit"
	"mmr/internal/topology"
	"mmr/internal/traffic"
	"mmr/internal/vcm"
)

func TestOpenAsyncEstablishes(t *testing.T) {
	n := meshNet(t, 3, 3)
	var got *Conn
	var gotErr error
	if err := openProbe(n, "", 0, 8, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 55 * traffic.Mbps},
		func(c *Conn, err error) { got, gotErr = c, err }); err != nil {
		t.Fatal(err)
	}
	// Nothing established yet — the probe is in flight.
	if got != nil {
		t.Fatal("connection established instantaneously")
	}
	// Probe: 4 hops forward + 4 ack hops at HopLatency=4 → ~32 cycles.
	n.Run(100)
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if got == nil {
		t.Fatal("probe never completed")
	}
	if len(got.Path) != 4 {
		t.Fatalf("path length %d, want 4", len(got.Path))
	}
	if got.SetupTime < 2*4*int64(len(got.Path)-1) {
		t.Fatalf("setup time %d too small for probe+ack at HopLatency", got.SetupTime)
	}
	// The connection now carries traffic.
	n.Run(20_000)
	if n.Stats().FlitsDelivered == 0 {
		t.Fatal("async-established connection delivered nothing")
	}
}

func TestOpenAsyncValidation(t *testing.T) {
	n := meshNet(t, 2, 2)
	if err := openProbe(n, "", 0, 0, traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Mbps}, nil); err == nil {
		t.Fatal("same-node accepted")
	}
	if err := openProbe(n, "", -1, 1, traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Mbps}, nil); err == nil {
		t.Fatal("bad endpoint accepted")
	}
	if err := openProbe(n, "", 0, 1, traffic.ConnSpec{Class: flit.ClassBestEffort}, nil); err == nil {
		t.Fatal("non-stream accepted")
	}
}

func TestOpenAsyncFailureReleasesResources(t *testing.T) {
	tp, _ := topology.Mesh(2, 1, 4)
	cfg := DefaultConfig(tp)
	cfg.VCs = 2
	n, _ := New(cfg)
	// Fill both link VCs synchronously.
	for i := 0; i < 2; i++ {
		if _, err := n.Open(0, 1, traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Mbps}); err != nil {
			t.Fatal(err)
		}
	}
	failed := false
	openProbe(n, "", 0, 1, traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Mbps},
		func(c *Conn, err error) { failed = err != nil })
	n.Run(200)
	if !failed {
		t.Fatal("probe should have failed on a VC-saturated link")
	}
	// Allocator state must reflect exactly the two live connections.
	if got := n.nodes[0].Alloc[0].Connections(); got != 2 {
		t.Fatalf("allocator holds %d connections, want 2", got)
	}
	st := n.Stats()
	if st.SetupRejected != 1 || st.SetupAccepted != 2 {
		t.Fatalf("setup accounting wrong: %+v", st)
	}
}

func TestOpenAsyncProbesRace(t *testing.T) {
	// Two probes launched the same cycle race for the last VC of a
	// single-link network: exactly one must win.
	tp, _ := topology.Mesh(2, 1, 4)
	cfg := DefaultConfig(tp)
	cfg.VCs = 1
	n, _ := New(cfg)
	var ok, fail int
	done := func(c *Conn, err error) {
		if err != nil {
			fail++
		} else {
			ok++
		}
	}
	openProbe(n, "", 0, 1, traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Mbps}, done)
	openProbe(n, "", 0, 1, traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Mbps}, done)
	n.Run(200)
	if ok != 1 || fail != 1 {
		t.Fatalf("race outcome ok=%d fail=%d, want exactly one winner", ok, fail)
	}
}

func TestOpenAsyncBacktracksAndSucceeds(t *testing.T) {
	// 3x3 mesh with the east-side VCs of node 0 saturated: the probe
	// toward node 8 must route around (or backtrack) and still succeed.
	n := meshNet(t, 3, 3)
	// Saturate the input VCs of node 1's west port (fed by node 0 east).
	pp := n.cfg.Topology.PeerPort(0, 0)
	mem := n.nodes[1].Mems[pp]
	for vc := 0; vc < n.cfg.VCs; vc++ {
		if !mem.State(vc).InUse {
			mem.Reserve(vc, vcmHold())
		}
	}
	var got *Conn
	openProbe(n, "", 0, 8, traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Mbps},
		func(c *Conn, err error) { got = c })
	n.Run(400)
	if got == nil {
		t.Fatal("probe failed despite an available southern route")
	}
	if got.Path[0].Port == 0 {
		t.Fatal("probe claims to have used the saturated east link")
	}
	// Clean up reservation so Close paths remain exercised elsewhere.
	_ = got
}

func TestAsyncAndSyncCoexist(t *testing.T) {
	n := meshNet(t, 3, 3)
	completed := 0
	for i := 0; i < 4; i++ {
		src, dst := i, 8-i
		openProbe(n, "", src, dst, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 10 * traffic.Mbps},
			func(c *Conn, err error) {
				if err == nil {
					completed++
				}
			})
	}
	if _, err := n.Open(1, 7, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 10 * traffic.Mbps}); err != nil {
		t.Fatal(err)
	}
	n.Run(10_000)
	if completed != 4 {
		t.Fatalf("only %d/4 async setups completed", completed)
	}
	if n.Stats().FlitsDelivered == 0 {
		t.Fatal("mixed connections delivered nothing")
	}
}

// vcmHold returns a placeholder reservation used to saturate VCs in tests.
func vcmHold() vcm.VCState {
	return vcm.VCState{Conn: flit.InvalidConn, Class: flit.ClassControl, Output: -1}
}
