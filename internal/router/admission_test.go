package router

import (
	"testing"

	"mmr/internal/flit"
	"mmr/internal/traffic"
)

// TestAdmissionDecisions pins which requests an output link accepts under
// each admission mode, on smallConfig's links (1.24 Gbps, 128-cycle rounds,
// concurrency factor 2): CBR rates that fill a link to within float error, and
// one more past that, VBR peaks at the concurrency limit, a VBR peak below
// its rate (charged at the rate), bandwidth growth refused at the boundary
// and shrinking, a Release with a bandwidth word in flight, and the freed
// output taken again. Each scenario runs on a fresh router; a step's rate
// and alloc columns say whether AdmitRate and AdmitAllocation accept it.
func TestAdmissionDecisions(t *testing.T) {
	cbr := func(rate traffic.Rate, in, out int) traffic.ConnSpec {
		return traffic.ConnSpec{Class: flit.ClassCBR, Rate: rate, In: in, Out: out}
	}
	vbr := func(rate, peak traffic.Rate, in, out int) traffic.ConnSpec {
		return traffic.ConnSpec{Class: flit.ClassVBR, Rate: rate, PeakRate: peak, In: in, Out: out}
	}
	type step struct {
		op          string           // "open", "set" (SetBandwidth to spec.Rate) or "release"
		conn        string           // the connection the step opens or acts on
		spec        traffic.ConnSpec // "open": the request; "set": the new rate
		rate, alloc bool             // accepted under AdmitRate, under AdmitAllocation
	}
	scenarios := []struct {
		name  string
		steps []step
	}{
		{"fill", []step{
			// Twenty twentieths of the link: 0.05 summed twenty times is
			// 1 + 2.2e-16 in rate mode, inside its tolerance; 7 cycles/round
			// each (6.4 rounded up) in allocation mode, so 18 fit there. Then
			// 1 Mbps more, and one twentieth freed and taken again.
			{"open", "f1", cbr(62*traffic.Mbps, 0, 1), true, true},
			{"open", "f2", cbr(62*traffic.Mbps, 1, 1), true, true},
			{"open", "f3", cbr(62*traffic.Mbps, 2, 1), true, true},
			{"open", "f4", cbr(62*traffic.Mbps, 3, 1), true, true},
			{"open", "f5", cbr(62*traffic.Mbps, 0, 1), true, true},
			{"open", "f6", cbr(62*traffic.Mbps, 1, 1), true, true},
			{"open", "f7", cbr(62*traffic.Mbps, 2, 1), true, true},
			{"open", "f8", cbr(62*traffic.Mbps, 3, 1), true, true},
			{"open", "f9", cbr(62*traffic.Mbps, 0, 1), true, true},
			{"open", "f10", cbr(62*traffic.Mbps, 1, 1), true, true},
			{"open", "f11", cbr(62*traffic.Mbps, 2, 1), true, true},
			{"open", "f12", cbr(62*traffic.Mbps, 3, 1), true, true},
			{"open", "f13", cbr(62*traffic.Mbps, 0, 1), true, true},
			{"open", "f14", cbr(62*traffic.Mbps, 1, 1), true, true},
			{"open", "f15", cbr(62*traffic.Mbps, 2, 1), true, true},
			{"open", "f16", cbr(62*traffic.Mbps, 3, 1), true, true},
			{"open", "f17", cbr(62*traffic.Mbps, 0, 1), true, true},
			{"open", "f18", cbr(62*traffic.Mbps, 1, 1), true, true},
			{"open", "f19", cbr(62*traffic.Mbps, 2, 1), true, false},
			{"open", "f20", cbr(62*traffic.Mbps, 3, 1), true, false},
			{"open", "f21", cbr(1*traffic.Mbps, 0, 1), false, true},
			{"release", "f1", traffic.ConnSpec{}, true, true},
			{"open", "f22", cbr(62*traffic.Mbps, 1, 1), true, true},
		}},
		{"concurrency", []step{
			// Peaks of half the link (64 cycles/round): four fill a concurrency
			// factor of 2 exactly, the fifth exceeds it.
			{"open", "v1", vbr(100*traffic.Mbps, 620*traffic.Mbps, 0, 2), true, true},
			{"open", "v2", vbr(100*traffic.Mbps, 620*traffic.Mbps, 1, 2), true, true},
			{"open", "v3", vbr(100*traffic.Mbps, 620*traffic.Mbps, 2, 2), true, true},
			{"open", "v4", vbr(100*traffic.Mbps, 620*traffic.Mbps, 3, 2), true, true},
			{"open", "v5", vbr(100*traffic.Mbps, 620*traffic.Mbps, 0, 2), false, false},
		}},
		{"peak-below-rate", []step{
			// l1's peak is charged at its rate (0.242 of the link, 31 cycles), so
			// a 1.79-link peak no longer fits under the factor of 2 and a
			// 1.75-link one does; charged at its own peak (0.081, 11 cycles), l1
			// would have let both in.
			{"open", "l1", vbr(300*traffic.Mbps, 100*traffic.Mbps, 0, 3), true, true},
			{"open", "l2", vbr(10*traffic.Mbps, 2219.6*traffic.Mbps, 1, 3), false, false},
			{"open", "l3", vbr(10*traffic.Mbps, 2170*traffic.Mbps, 2, 3), true, true},
		}},
		{"grow-shrink", []step{
			// Two halves fill output 0 exactly. Growing one by 2 bps is past
			// the 1e-9 tolerance of rate mode and by 1 bps inside it; either
			// takes a 65th cycle in allocation mode. Shrinking always succeeds
			// and frees a quarter for a third connection.
			{"open", "g1", cbr(620*traffic.Mbps, 1, 0), true, true},
			{"open", "g2", cbr(620*traffic.Mbps, 2, 0), true, true},
			{"set", "g1", cbr(620*traffic.Mbps+2, 0, 0), false, false},
			{"set", "g1", cbr(620*traffic.Mbps+1, 0, 0), true, false},
			{"set", "g1", cbr(310*traffic.Mbps, 0, 0), true, true},
			{"open", "g3", cbr(310*traffic.Mbps, 3, 0), true, true},
			{"open", "g4", cbr(1*traffic.Mbps, 3, 0), false, false},
		}},
		{"release-in-flight", []step{
			// Released with its bandwidth word still in flight, w1 refunds what
			// admission holds for it (620 Mbps), and the whole link is free again.
			{"open", "w1", cbr(10*traffic.Mbps, 0, 1), true, true},
			{"set", "w1", cbr(620*traffic.Mbps, 0, 0), true, true},
			{"release", "w1", traffic.ConnSpec{}, true, true},
			{"open", "w2", cbr(1240*traffic.Mbps, 2, 1), true, true},
			{"open", "w3", cbr(1*traffic.Mbps, 3, 1), false, false},
		}},
	}
	for _, mode := range []AdmissionMode{AdmitRate, AdmitAllocation} {
		for _, sc := range scenarios {
			t.Run(mode.String()+"/"+sc.name, func(t *testing.T) {
				cfg := smallConfig()
				cfg.Admission = mode
				r, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				conns := map[string]*Connection{}
				for i, s := range sc.steps {
					var err error
					switch s.op {
					case "open":
						var c *Connection
						if c, err = r.Establish(s.spec); err == nil {
							conns[s.conn] = c
						}
					case "set":
						err = r.SetBandwidth(conns[s.conn], s.spec.Rate)
					case "release":
						err = r.Release(conns[s.conn])
					}
					want := s.alloc
					if mode == AdmitRate {
						want = s.rate
					}
					if got := err == nil; got != want {
						t.Errorf("step %d (%s %s): accepted %v, want %v (err %v)", i, s.op, s.conn, got, want, err)
					}
				}
			})
		}
	}
}
