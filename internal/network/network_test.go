package network

import (
	"math"
	"strings"
	"testing"

	"mmr/internal/flit"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

func meshNet(t *testing.T, w, h int) *Network {
	t.Helper()
	tp, err := topology.Mesh(w, h, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.VCs = 16
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	tp := topology.New(3, 4) // disconnected
	cfg := DefaultConfig(tp)
	if _, err := New(cfg); err == nil {
		t.Fatal("disconnected topology accepted")
	}
	tp2, _ := topology.Mesh(2, 2, 4)
	bad := DefaultConfig(tp2)
	bad.VCs = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero VCs accepted")
	}
}

// TestConfigRejectsOversizedGeometry: upstream references, channel-map
// entries and flight-recorder events keep ports, VCs and node IDs in 16
// bits and credit counts in 8, so New refuses — naming the bound — any
// geometry past them instead of truncating an index, and accepts one at
// the bound.
func TestConfigRejectsOversizedGeometry(t *testing.T) {
	mesh := func(w, h, ports int) *topology.Topology {
		tp, err := topology.Mesh(w, h, ports)
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		bound string
	}{
		{"VCs", func() Config { c := DefaultConfig(mesh(2, 2, 4)); c.VCs = 40000; return c }(), "32767"},
		{"VCs", func() Config { c := DefaultConfig(mesh(2, 2, 4)); c.VCs = 32768; return c }(), "32767"},
		{"radix", DefaultConfig(mesh(2, 1, 32767)), "32767"},
		{"nodes", DefaultConfig(mesh(32768, 1, 4)), "32767"},
		{"depth", func() Config { c := DefaultConfig(mesh(2, 2, 4)); c.Depth = 256; return c }(), "255"},
	} {
		_, err := New(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.bound) {
			t.Errorf("%s past its bound: New returned %v, want an error naming %s", tc.name, err, tc.bound)
		}
	}
	atBound := DefaultConfig(mesh(2, 1, 4))
	atBound.VCs = 32767
	if _, err := New(atBound); err != nil {
		t.Fatalf("32767 VCs refused: %v", err)
	}
}

func TestOpenReservesPath(t *testing.T) {
	n := meshNet(t, 3, 3)
	conn, err := n.Open(0, 8, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 120 * traffic.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	if len(conn.Path) != 4 {
		t.Fatalf("path length %d, want 4 (minimal)", len(conn.Path))
	}
	if len(conn.VCs) != 5 { // entry VC + one per hop
		t.Fatalf("reserved %d VCs, want 5", len(conn.VCs))
	}
	if conn.SetupTime <= 0 {
		t.Fatal("setup time not charged")
	}
	// Bandwidth charged along the path and at the destination host port.
	for _, hop := range conn.Path {
		if n.nodes[hop.Node].Alloc[hop.Port].Guaranteed() == 0 {
			t.Fatalf("no allocation at hop %+v", hop)
		}
	}
	if n.nodes[8].Alloc[n.cfg.hostPort()].Guaranteed() == 0 {
		t.Fatal("no ejection allocation at destination")
	}
}

func TestOpenErrors(t *testing.T) {
	n := meshNet(t, 2, 2)
	if _, err := n.Open(0, 0, traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Mbps}); err == nil {
		t.Fatal("same-node connection accepted")
	}
	if _, err := n.Open(-1, 1, traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Mbps}); err == nil {
		t.Fatal("bad endpoint accepted")
	}
	if _, err := n.Open(0, 1, traffic.ConnSpec{Class: flit.ClassBestEffort, Rate: traffic.Mbps}); err == nil {
		t.Fatal("non-stream class accepted")
	}
}

func TestOpenAdmissionRefusesOverload(t *testing.T) {
	tp, _ := topology.Mesh(2, 1, 4) // two routers, one link
	cfg := DefaultConfig(tp)
	cfg.VCs = 16
	n, _ := New(cfg)
	// 1.24 Gbps link; 300 Mbps needs ceil(300/1240×32)=8 of 32 cycles/round.
	admitted := 0
	for i := 0; i < 10; i++ {
		if _, err := n.Open(0, 1, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 300 * traffic.Mbps}); err == nil {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("admitted %d connections, want 4 (allocation-quantized link capacity)", admitted)
	}
	st := n.Stats()
	if st.SetupAttempts != 10 || st.SetupAccepted != 4 || st.SetupRejected != 6 {
		t.Fatalf("setup accounting wrong: %+v", st)
	}
}

func TestEndToEndStreamDelivery(t *testing.T) {
	n := meshNet(t, 3, 3)
	conn, err := n.Open(0, 8, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 120 * traffic.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(20000)
	st := n.Stats()
	want := n.cfg.Link.FlitsPerCycle(120*traffic.Mbps) * 20000
	if math.Abs(float64(st.FlitsDelivered)-want) > want*0.05 {
		t.Fatalf("delivered %d flits, want ~%.0f", st.FlitsDelivered, want)
	}
	// End-to-end latency ≈ hops × (1 service + LinkDelay) with no
	// contention; 4 hops plus entry ≈ 10±few cycles.
	if st.Latency.Mean() < 5 || st.Latency.Mean() > 25 {
		t.Fatalf("uncontended end-to-end latency = %.2f cycles", st.Latency.Mean())
	}
	// CBR through an idle network: near-zero jitter.
	if st.Jitter.Mean() > 0.5 {
		t.Fatalf("uncontended jitter = %.3f", st.Jitter.Mean())
	}
	_ = conn
}

func TestFlitConservationAcrossNetwork(t *testing.T) {
	n := meshNet(t, 3, 3)
	for i := 0; i < 6; i++ {
		src, dst := i, 8-i
		if src == dst {
			continue
		}
		if _, err := n.Open(src, dst, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 55 * traffic.Mbps}); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(10000)
	st := n.Stats()
	// generated = delivered + in NI queues + buffered in VCMs + on wires.
	var buffered, queued, inflight int64
	for _, nd := range n.nodes {
		for _, mem := range nd.Mems {
			buffered += int64(mem.Occupied())
		}
		for q := range nd.out {
			inflight += int64(len(nd.out[q].flits.Pending()))
		}
	}
	for _, c := range n.conns {
		queued += int64(c.ni.Queue.Len())
	}
	if st.FlitsGenerated != st.FlitsDelivered+buffered+queued+inflight {
		t.Fatalf("conservation: gen=%d del=%d buf=%d q=%d wire=%d",
			st.FlitsGenerated, st.FlitsDelivered, buffered, queued, inflight)
	}
}

func TestCloseReleasesEverything(t *testing.T) {
	n := meshNet(t, 3, 3)
	conn, err := n.Open(0, 8, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 55 * traffic.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(5000)
	if err := n.DrainAndClose(conn, 1000); err != nil {
		t.Fatal(err)
	}
	// All VCs free again, all allocations zero.
	for id, nd := range n.nodes {
		for p, mem := range nd.Mems {
			if mem.FreeVCs() != n.cfg.VCs {
				t.Fatalf("node %d port %d leaked VCs", id, p)
			}
			if nd.Alloc[p].Guaranteed() != 0 {
				t.Fatalf("node %d port %d leaked bandwidth", id, p)
			}
		}
	}
	if err := n.Close(conn); err == nil {
		t.Fatal("double close accepted")
	}
	// The freed resources admit a new connection.
	if _, err := n.Open(0, 8, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 55 * traffic.Mbps}); err != nil {
		t.Fatalf("reopen failed: %v", err)
	}
}

func TestBestEffortAcrossNetwork(t *testing.T) {
	n := meshNet(t, 3, 3)
	if _, err := n.AddBestEffortFlow(0, 8, 0.02); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddBestEffortFlow(0, 0, 0.02); err == nil {
		t.Fatal("same-node BE flow accepted")
	}
	n.Run(20000)
	st := n.Stats()
	if st.BEDelivered == 0 {
		t.Fatal("no best-effort packets delivered")
	}
	if float64(st.BEDelivered) < 0.9*float64(st.BEGenerated) {
		t.Fatalf("BE delivery too low: %d of %d", st.BEDelivered, st.BEGenerated)
	}
	// Idle network: latency ≈ hops × (route + service + wire).
	if st.BELatency.Mean() > 40 {
		t.Fatalf("idle-network BE latency = %.2f", st.BELatency.Mean())
	}
	// All packet VCs released.
	for id, nd := range n.nodes {
		for p, mem := range nd.Mems {
			if got := n.cfg.VCs - mem.FreeVCs(); got != int(0) {
				if int64(got) > st.BEGenerated-st.BEDelivered {
					t.Fatalf("node %d port %d holds %d VCs", id, p, got)
				}
			}
		}
	}
}

func TestStreamsAndBestEffortCoexist(t *testing.T) {
	n := meshNet(t, 3, 3)
	// A heavy stream 0→8 plus best-effort along the same diagonal.
	if _, err := n.Open(0, 8, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 600 * traffic.Mbps}); err != nil {
		t.Fatal(err)
	}
	n.AddBestEffortFlow(0, 8, 0.05)
	n.Run(30000)
	st := n.Stats()
	want := n.cfg.Link.FlitsPerCycle(600*traffic.Mbps) * 30000
	if float64(st.FlitsDelivered) < want*0.95 {
		t.Fatalf("stream starved by best-effort: %d of ~%.0f", st.FlitsDelivered, want)
	}
	if st.BEDelivered == 0 {
		t.Fatal("best-effort starved completely")
	}
}

func TestSetupBacktracksUnderContention(t *testing.T) {
	// Saturate VCs on a tiny network to force backtracking or rejection.
	tp, _ := topology.Mesh(3, 1, 4) // 0-1-2 chain
	cfg := DefaultConfig(tp)
	cfg.VCs = 2 // very few VCs
	n, _ := New(cfg)
	opened := 0
	for i := 0; i < 6; i++ {
		if _, err := n.Open(0, 2, traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Mbps}); err == nil {
			opened++
		}
	}
	// Chain has 2 VCs per link input: at most 2 connections fit.
	if opened != 2 {
		t.Fatalf("opened %d, want 2 (VC-limited)", opened)
	}
}

func TestVBRConnection(t *testing.T) {
	n := meshNet(t, 3, 3)
	conn, err := n.Open(0, 4, traffic.ConnSpec{
		Class: flit.ClassVBR, Rate: 20 * traffic.Mbps, PeakRate: 60 * traffic.Mbps, Priority: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(40000)
	st := n.Stats()
	if st.FlitsDelivered == 0 {
		t.Fatal("VBR stream delivered nothing")
	}
	ref := conn.VCs[1]
	nd := n.nodes[n.cfg.Topology.Neighbor(conn.Path[0].Node, conn.Path[0].Port)]
	vs := nd.Mems[ref.Port].State(ref.VC)
	if vs.Peak <= vs.Allocated {
		t.Fatal("VBR peak not installed along the path")
	}
}

func TestSessionEvents(t *testing.T) {
	n := meshNet(t, 3, 3)
	opened := false
	n.Events().At(100, eventFunc(func() {
		_, err := n.Open(0, 8, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 55 * traffic.Mbps})
		opened = err == nil
	}))
	n.Run(200)
	if !opened {
		t.Fatal("session event did not fire")
	}
	if n.Stats().FlitsGenerated == 0 {
		t.Fatal("connection opened by event produced no traffic")
	}
}

// eventFunc adapts a closure to sim.Event for session-level tests.
type eventFunc func()

func (f eventFunc) Fire(_ sim.Time) { f() }

func TestStatsAcceptanceAndString(t *testing.T) {
	s := &Stats{SetupAttempts: 4, SetupAccepted: 3}
	if s.AcceptanceRate() != 0.75 {
		t.Fatalf("acceptance = %v", s.AcceptanceRate())
	}
	if (&Stats{}).AcceptanceRate() != 0 {
		t.Fatal("zero-attempt acceptance should be 0")
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestResetStatsKeepsSessionCounters(t *testing.T) {
	n := meshNet(t, 2, 2)
	if _, err := n.Open(0, 3, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 55 * traffic.Mbps}); err != nil {
		t.Fatal(err)
	}
	n.Run(2000)
	n.ResetStats()
	st := n.Stats()
	if st.FlitsDelivered != 0 || st.Cycles != 0 {
		t.Fatal("datapath stats not reset")
	}
	// Session-level setup statistics survive the warmup boundary.
	if st.SetupAccepted != 1 {
		t.Fatalf("setup counter lost: %d", st.SetupAccepted)
	}
}
