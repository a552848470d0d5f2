package router

import (
	"strings"
	"testing"
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

	if got := snap.FamilyTotal("mmr_router_flits_transmitted_total"); got != totalTransmitted(m) {
		t.Errorf("transmitted = %d, metrics snapshot says %d", totalTransmitted(m), got)
	}
	if got := snap.FamilyTotal("mmr_router_flits_generated_total"); got != m.FlitsGenerated {
		t.Errorf("generated = %d, want %d", got, m.FlitsGenerated)
	}
	if v, ok := snap.GaugeTotal("mmr_router_cycles", ""); !ok || v != float64(m.Cycles) {
		t.Errorf("cycles gauge = %v, want %d", v, m.Cycles)
	}
	if v, ok := snap.GaugeTotal("mmr_router_switch_utilization", ""); !ok || v != m.SwitchUtilization {
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
	if want := m.Delay.Sum(); sum < want-0.5 || sum > want+0.5 {
		t.Errorf("delay histogram sum %.1f != delay total %.1f", sum, want)
	}
	if snap.FamilyTotal("mmr_router_sched_nominated_total") == 0 {
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

func totalTransmitted(m *Metrics) int64 {
	var t int64
	for _, v := range m.PerClassDelivered {
		t += v
	}
	return t
}
