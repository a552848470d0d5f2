package router

import (
	"strings"
	"testing"

	"mmr/internal/flit"
	"mmr/internal/traffic"
)

func TestMetricsPerClassCounters(t *testing.T) {
	cfg := smallConfig()
	r, _ := New(cfg)
	r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 100 * traffic.Mbps, In: 0, Out: 1})
	r.Establish(traffic.ConnSpec{Class: flit.ClassVBR, Rate: 20 * traffic.Mbps, PeakRate: 60 * traffic.Mbps, In: 1, Out: 2})
	r.AddBestEffortFlow(2, 3, 0.02)
	r.AddControlFlow(3, 0, 0.01)
	m := r.Run(1_000, 30_000)
	if m.PerClassDelivered[flit.ClassCBR] == 0 ||
		m.PerClassDelivered[flit.ClassVBR] == 0 ||
		m.PerClassDelivered[flit.ClassBestEffort] == 0 ||
		m.PerClassDelivered[flit.ClassControl] == 0 {
		t.Fatalf("some class delivered nothing: %v", m.PerClassDelivered)
	}
	if m.FlitsDelivered != m.PerClassDelivered[flit.ClassCBR]+m.PerClassDelivered[flit.ClassVBR] {
		t.Fatal("FlitsDelivered must count stream classes only")
	}
	if !strings.Contains(m.String(), "delivered") {
		t.Fatal("metrics string malformed")
	}
}

func TestMetricsWarmupDiscard(t *testing.T) {
	cfg := smallConfig()
	r, _ := New(cfg)
	r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 100 * traffic.Mbps, In: 0, Out: 1})
	m := r.Run(10_000, 1_000)
	// Measurement window only: ~80 flits at 100 Mbps over 1000 cycles,
	// not the ~880 of the whole run.
	want := cfg.Link.FlitsPerCycle(100*traffic.Mbps) * 1000
	if float64(m.FlitsDelivered) > want*1.2 {
		t.Fatalf("warmup leaked into measurement: %d flits, want ~%.0f", m.FlitsDelivered, want)
	}
	if m.Cycles != 1_000 {
		t.Fatalf("measured cycles = %d", m.Cycles)
	}
}
