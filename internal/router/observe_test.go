package router

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"mmr/internal/flit"
	"mmr/internal/metrics"
	"mmr/internal/traffic"
)

// TestRouterMetricsMatchMeasurement: the gathered registry mirrors the
// measurement snapshot exactly, and the hot-path delay histograms cover
// the same measurement window as the transmitted counters.
func TestRouterMetricsMatchMeasurement(t *testing.T) {
	cfg := PaperConfig()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.EstablishWorkload(mustWorkload(t, cfg, 0.5, 7)); err != nil {
		t.Fatal(err)
	}
	r.EnableMetrics() // before Run, so the histograms observe the window
	m := r.Run(2000, 4000)
	snap := r.GatherMetrics()

	if got := familyTotal(snap, "mmr_router_flits_transmitted_total"); got != totalTransmitted(m) {
		t.Errorf("transmitted = %d, metrics snapshot says %d", totalTransmitted(m), got)
	}
	if got := familyTotal(snap, "mmr_router_flits_generated_total"); got != m.FlitsGenerated {
		t.Errorf("generated = %d, want %d", got, m.FlitsGenerated)
	}
	if v, ok := gaugeTotal(snap, "mmr_router_cycles", ""); !ok || v != float64(m.Cycles) {
		t.Errorf("cycles gauge = %v, want %d", v, m.Cycles)
	}
	if v, ok := gaugeTotal(snap, "mmr_router_switch_utilization", ""); !ok || v != m.SwitchUtilization {
		t.Errorf("utilization gauge = %v, want %v", v, m.SwitchUtilization)
	}

	// Delay histograms reset with the measurement window, so their count
	// equals the delivered stream flits and their sum the delay total.
	var count int64
	var sum float64
	for _, h := range snap.Histograms {
		if h.Name == "mmr_router_delay_cycles" && !strings.Contains(h.Labels, "best-effort") && !strings.Contains(h.Labels, "control") {
			count += h.Count
			sum += h.Sum
		}
	}
	if count != m.FlitsDelivered {
		t.Errorf("delay histogram count %d != FlitsDelivered %d", count, m.FlitsDelivered)
	}
	if want := m.Delay.Mean() * float64(m.Delay.N()); sum < want-0.5 || sum > want+0.5 {
		t.Errorf("delay histogram sum %.1f != delay total %.1f", sum, want)
	}
	if familyTotal(snap, "mmr_router_sched_nominated_total") == 0 {
		t.Error("scheduler nominated nothing on a loaded router")
	}
}

// TestStepZeroAllocWithMetricsEnabled: enabling the registry must not
// cost the hot path its zero-alloc property — the Sink's histogram
// observes are bounded bucket scans into preallocated arrays.
func TestStepZeroAllocWithMetricsEnabled(t *testing.T) {
	cfg := PaperConfig()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.EstablishWorkload(mustWorkload(t, cfg, 0.8, 5)); err != nil {
		t.Fatal(err)
	}
	r.EnableMetrics()
	r.Run(5_000, 0)
	allocs := testing.AllocsPerRun(500, func() { r.Step() })
	if allocs != 0 {
		t.Errorf("Router.Step with metrics enabled allocates %.2f times per cycle, want 0", allocs)
	}
}

// TestGuaranteedLoadTracksAdmission holds Allocator(out).GuaranteedLoad and
// the gathered mmr_router_guaranteed_load{port} to what admission holds at
// each output, under both modes — Σ rate / bandwidth under AdmitRate,
// Σ allocation / round under AdmitAllocation, and exactly 0 on an output
// nothing was admitted to — across Establish, a SetBandwidth whose control
// word has landed, and Release.
func TestGuaranteedLoadTracksAdmission(t *testing.T) {
	for _, mode := range []AdmissionMode{AdmitRate, AdmitAllocation} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Admission = mode
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			holds := func(spec traffic.ConnSpec) float64 {
				if mode == AdmitRate {
					return float64(spec.Rate) / float64(cfg.Link.Bandwidth)
				}
				return float64(cfg.Link.CyclesPerRound(spec.Rate, cfg.RoundLen())) / float64(cfg.RoundLen())
			}
			check := func(when string, conns ...*Connection) {
				t.Helper()
				want := make([]float64, cfg.Ports)
				used := make([]bool, cfg.Ports)
				for _, c := range conns {
					want[c.Spec.Out] += holds(c.Spec)
				}
				for _, c := range r.Connections() {
					used[c.Spec.Out] = true
				}
				snap := r.GatherMetrics()
				for out := range want {
					got := r.Allocator(out).GuaranteedLoad()
					if g, ok := gaugeTotal(snap, "mmr_router_guaranteed_load", `port="`+strconv.Itoa(out)+`"`); !ok || g != got {
						t.Errorf("%s: output %d gauge reads %v, the allocator %v", when, out, g, got)
					}
					if math.Abs(got-want[out]) > 1e-12 || !used[out] && got != 0 {
						t.Errorf("%s: output %d holds %v, admission charged %v", when, out, got, want[out])
					}
				}
			}
			open := func(spec traffic.ConnSpec) *Connection {
				t.Helper()
				c, err := r.Establish(spec)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			release := func(c *Connection) {
				t.Helper()
				for i := 0; i < 5; i++ { // until the sink's credits are home
					if err = r.Release(c); err == nil {
						return
					}
					r.Step()
				}
				t.Fatal(err)
			}

			check("empty")
			c1 := open(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 120 * traffic.Mbps, In: 0, Out: 1})
			c2 := open(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 55 * traffic.Mbps, In: 2, Out: 1})
			v := open(traffic.ConnSpec{Class: flit.ClassVBR, Rate: 20 * traffic.Mbps, PeakRate: 60 * traffic.Mbps, In: 1, Out: 2})
			check("established", c1, c2, v)
			if err := r.SetBandwidth(c2, 300*traffic.Mbps); err != nil {
				t.Fatal(err)
			}
			r.Step()
			r.Step()
			if c2.Spec.Rate != 300*traffic.Mbps {
				t.Fatal("the bandwidth word did not land")
			}
			check("grown", c1, c2, v)
			release(c1)
			check("c1 released", c2, v)
			release(c2)
			release(v)
			check("all released")
		})
	}
}

func totalTransmitted(m *Metrics) int64 {
	var t int64
	for _, v := range m.PerClassDelivered {
		t += v
	}
	return t
}

// familyTotal sums the Total of every counter series of family name,
// across its label variants.
func familyTotal(s *metrics.Snapshot, name string) int64 {
	var t int64
	for _, c := range s.Counters {
		if c.Name == name {
			t += c.Total
		}
	}
	return t
}

// gaugeTotal is the Total of the gauge series name with exactly the
// rendered labels.
func gaugeTotal(s *metrics.Snapshot, name, labels string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name && g.Labels == labels {
			return g.Total, true
		}
	}
	return 0, false
}
