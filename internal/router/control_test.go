package router

import (
	"math"
	"testing"

	"mmr/internal/flit"
	"mmr/internal/traffic"
)

func TestSetBandwidthChangesRate(t *testing.T) {
	cfg := smallConfig()
	cfg.Admission = AdmitAllocation
	r, _ := New(cfg)
	conn, err := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 55 * traffic.Mbps, In: 0, Out: 1})
	if err != nil {
		t.Fatal(err)
	}
	oldAlloc := r.Memory(0).State(conn.VC).Allocated
	r.Run(0, 5000)

	if err := r.SetBandwidth(conn, 120*traffic.Mbps); err != nil {
		t.Fatal(err)
	}
	r.Step() // propagate the control word
	r.Step()
	m := r.Run(0, 20000) // fresh measurement window at the new rate
	// After the command applies, delivery runs at ~120 Mbps.
	want := cfg.Link.FlitsPerCycle(120*traffic.Mbps) * 20000
	if math.Abs(float64(m.FlitsDelivered)-want) > want*0.05 {
		t.Fatalf("delivered %d flits after rate change, want ~%.0f", m.FlitsDelivered, want)
	}
	st := r.Memory(0).State(conn.VC)
	if st.Allocated <= oldAlloc {
		t.Fatal("allocation not grown")
	}
	if conn.Spec.Rate != 120*traffic.Mbps {
		t.Fatal("spec rate not updated")
	}
}

func TestSetBandwidthShrinkReleases(t *testing.T) {
	cfg := smallConfig()
	cfg.Admission = AdmitAllocation
	r, _ := New(cfg)
	conn, _ := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 120 * traffic.Mbps, In: 0, Out: 1})
	before := r.Allocator(1).Guaranteed()
	if err := r.SetBandwidth(conn, 10*traffic.Mbps); err != nil {
		t.Fatal(err)
	}
	if r.Allocator(1).Guaranteed() >= before {
		t.Fatal("shrink did not release bandwidth")
	}
	if r.Allocator(1).Connections() != 1 {
		t.Fatal("connection count corrupted by adjustment")
	}
}

func TestSetBandwidthAdmissionRefusal(t *testing.T) {
	cfg := smallConfig()
	cfg.Admission = AdmitAllocation
	r, _ := New(cfg)
	conn, _ := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 100 * traffic.Mbps, In: 0, Out: 1})
	// Fill the rest of the output link.
	for {
		if _, err := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 200 * traffic.Mbps, In: 1, Out: 1}); err != nil {
			break
		}
	}
	if err := r.SetBandwidth(conn, 1.2*traffic.Gbps); err == nil {
		t.Fatal("growth beyond link capacity accepted")
	}
	if conn.Spec.Rate != 100*traffic.Mbps {
		t.Fatal("refused growth mutated the connection")
	}
}

func TestSetBandwidthRateMode(t *testing.T) {
	cfg := smallConfig() // AdmitRate by default
	r, _ := New(cfg)
	conn, _ := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 100 * traffic.Mbps, In: 0, Out: 1})
	if err := r.SetBandwidth(conn, 1.3*traffic.Gbps); err == nil {
		t.Fatal("rate-mode growth beyond link bandwidth accepted")
	}
	if err := r.SetBandwidth(conn, 500*traffic.Mbps); err != nil {
		t.Fatal(err)
	}
}

func TestSetBandwidthErrors(t *testing.T) {
	r, _ := New(smallConfig())
	conn, _ := r.Establish(traffic.ConnSpec{
		Class: flit.ClassVBR, Rate: 10 * traffic.Mbps, PeakRate: 30 * traffic.Mbps, In: 0, Out: 1,
	})
	if err := r.SetBandwidth(conn, 20*traffic.Mbps); err == nil {
		t.Fatal("SetBandwidth on VBR accepted")
	}
	cbr, _ := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 10 * traffic.Mbps, In: 0, Out: 2})
	if err := r.SetBandwidth(cbr, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestSetPriority(t *testing.T) {
	r, _ := New(smallConfig())
	conn, _ := r.Establish(traffic.ConnSpec{
		Class: flit.ClassVBR, Rate: 10 * traffic.Mbps, PeakRate: 30 * traffic.Mbps,
		In: 0, Out: 1, Priority: 1,
	})
	if err := r.SetPriority(conn, 5); err != nil {
		t.Fatal(err)
	}
	r.Step() // propagate
	r.Step()
	if got := r.Memory(0).State(conn.VC).BasePriority; got != 5 {
		t.Fatalf("priority = %d, want 5", got)
	}
	cbr, _ := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 10 * traffic.Mbps, In: 0, Out: 2})
	if err := r.SetPriority(cbr, 3); err == nil {
		t.Fatal("SetPriority on CBR accepted")
	}
}

func TestAbortFrame(t *testing.T) {
	cfg := smallConfig()
	r, _ := New(cfg)
	conn, _ := r.Establish(traffic.ConnSpec{Class: flit.ClassVBR, Rate: 20 * traffic.Mbps, PeakRate: 60 * traffic.Mbps, In: 0, Out: 1})
	// Build a backlog by injecting directly.
	for i := 0; i < 20; i++ {
		conn.ni.Queue.Push(&flit.Flit{Conn: conn.ID, Class: flit.ClassVBR})
	}
	r.Step() // some flits enter the VC
	dropped := r.AbortFrame(conn)
	if dropped == 0 {
		t.Fatal("nothing dropped")
	}
	if conn.ni.Queue.Len() != 0 || r.Memory(0).Len(conn.VC) != 0 {
		t.Fatal("abort left flits queued")
	}
	m := r.Run(0, 1)
	if m.FramesAborted != 1 || m.FlitsDropped != int64(dropped) {
		t.Fatalf("abort accounting wrong: %d/%d", m.FramesAborted, m.FlitsDropped)
	}
}

func TestControlWordPropagationDelay(t *testing.T) {
	r, _ := New(smallConfig())
	conn, _ := r.Establish(traffic.ConnSpec{
		Class: flit.ClassVBR, Rate: 10 * traffic.Mbps, PeakRate: 30 * traffic.Mbps, In: 0, Out: 1,
	})
	if err := r.SetPriority(conn, 9); err != nil {
		t.Fatal(err)
	}
	// The command has not applied within the same cycle.
	if r.Memory(0).State(conn.VC).BasePriority == 9 {
		t.Fatal("control word applied instantaneously")
	}
	r.Step()
	r.Step()
	if r.Memory(0).State(conn.VC).BasePriority != 9 {
		t.Fatal("control word never applied")
	}
}

func TestReleaseFreesEverything(t *testing.T) {
	cfg := smallConfig()
	cfg.Admission = AdmitAllocation
	r, _ := New(cfg)
	conn, _ := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 100 * traffic.Mbps, In: 0, Out: 1})
	r.Run(0, 5000)
	// Retry until in-flight credits land (at most a couple of cycles).
	var err error
	for i := 0; i < 5; i++ {
		if err = r.Release(conn); err == nil {
			break
		}
		r.Step()
	}
	if err != nil {
		t.Fatal(err)
	}
	if r.Allocator(1).Guaranteed() != 0 || r.Allocator(1).Connections() != 0 {
		t.Fatal("bandwidth not released")
	}
	if r.Memory(0).State(conn.VC).InUse {
		t.Fatal("VC not released")
	}
	if err := r.Release(conn); err == nil {
		t.Fatal("double release accepted")
	}
	// The freed capacity admits a new full-rate connection.
	if _, err := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 1.2 * traffic.Gbps, In: 0, Out: 1}); err != nil {
		t.Fatalf("reuse after release failed: %v", err)
	}
}

func TestReleaseVBRAndRateMode(t *testing.T) {
	cfg := smallConfig() // AdmitRate
	r, _ := New(cfg)
	conn, _ := r.Establish(traffic.ConnSpec{
		Class: flit.ClassVBR, Rate: 200 * traffic.Mbps, PeakRate: 600 * traffic.Mbps, In: 0, Out: 1,
	})
	r.Run(0, 1000)
	for i := 0; i < 5; i++ {
		if err := r.Release(conn); err == nil {
			break
		}
		r.Step()
	}
	// The whole link is admittable again in rate mode.
	if _, err := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 1.2 * traffic.Gbps, In: 0, Out: 1}); err != nil {
		t.Fatalf("rate-mode release incomplete: %v", err)
	}
}

func TestPendingControlOnReleasedConnIgnored(t *testing.T) {
	cfg := smallConfig()
	r, _ := New(cfg)
	conn, _ := r.Establish(traffic.ConnSpec{
		Class: flit.ClassVBR, Rate: 10 * traffic.Mbps, PeakRate: 30 * traffic.Mbps, In: 0, Out: 1,
	})
	if err := r.SetPriority(conn, 9); err != nil {
		t.Fatal(err)
	}
	if err := r.Release(conn); err != nil {
		t.Fatal(err)
	}
	// Reuse the VC for a new connection; the stale control word must not
	// touch it.
	c2, _ := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 10 * traffic.Mbps, In: 0, Out: 2})
	r.Step()
	r.Step()
	if c2.VC == conn.VC && r.Memory(0).State(c2.VC).BasePriority == 9 {
		t.Fatal("stale control word applied to a reused VC")
	}
}

// TestReleaseWithBandwidthWordInFlight: SetBandwidth charges admission at
// once, the control word lands a cycle later, and a Release in between
// must refund what admission holds — the new rate — not the rate the
// connection still carries in its spec. The output link ends up empty and
// admits a full-rate connection.
func TestReleaseWithBandwidthWordInFlight(t *testing.T) {
	for _, mode := range []AdmissionMode{AdmitRate, AdmitAllocation} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Admission = mode
			r, _ := New(cfg)
			conn, err := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 10 * traffic.Mbps, In: 0, Out: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.SetBandwidth(conn, 500*traffic.Mbps); err != nil {
				t.Fatal(err)
			}
			if err := r.Release(conn); err != nil {
				t.Fatal(err)
			}
			r.Step() // the word arrives at a released connection and is dropped
			if g := r.Allocator(1).GuaranteedLoad(); math.Abs(g) > 1e-12 {
				t.Errorf("rate register of output 1 holds %g with no connection", g)
			}
			if a := r.Allocator(1); a.Guaranteed() != 0 || a.Connections() != 0 {
				t.Errorf("allocator of output 1 holds %d cycles for %d connections with none established", a.Guaranteed(), a.Connections())
			}
			if _, err := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: cfg.Link.Bandwidth, In: 2, Out: 1}); err != nil {
				t.Errorf("full-rate connection on the emptied output refused: %v", err)
			}
		})
	}
}
