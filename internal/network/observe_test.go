package network

import (
	"strings"
	"testing"

	"mmr/internal/metrics"
	"mmr/internal/topology"
)

// TestMetricsMatchStats: the mirrored metric families on a gathered
// snapshot agree exactly with the statistics snapshot, on a seeded
// fault scenario, and the hot-path histograms cover the same window
// (counts equal the delivered counters after a warmup reset).
func TestMetricsMatchStats(t *testing.T) {
	n, stats := metricsScenario(t)
	snap := n.GatherMetrics()

	intChecks := []struct {
		family string
		want   int64
	}{
		{"mmr_net_flits_generated_total", stats.FlitsGenerated},
		{"mmr_net_flits_delivered_total", stats.FlitsDelivered},
		{"mmr_net_link_flits_total", stats.LinkFlits},
		{"mmr_net_be_generated_total", stats.BEGenerated},
		{"mmr_net_be_delivered_total", stats.BEDelivered},
		{"mmr_net_flits_dropped_total", stats.FlitsDropped},
		{"mmr_net_flits_corrupted_total", stats.FlitsCorrupted},
		{"mmr_net_setup_attempts_total", stats.SetupAttempts},
		{"mmr_net_setup_accepted_total", stats.SetupAccepted},
		{"mmr_net_setup_rejected_total", stats.SetupRejected},
		{"mmr_net_faults_injected_total", stats.FaultsInjected},
		{"mmr_net_faults_repaired_total", stats.FaultsRepaired},
		{"mmr_net_fault_flits_lost_total", stats.FaultFlitsLost},
		{"mmr_net_conns_broken_total", stats.ConnsBroken},
		{"mmr_net_conns_restored_total", stats.ConnsRestored},
	}
	for _, c := range intChecks {
		if got := familyTotal(snap, c.family); got != c.want {
			t.Errorf("%s = %d, stats snapshot says %d", c.family, got, c.want)
		}
	}
	if stats.FaultsInjected == 0 || stats.ConnsBroken == 0 {
		t.Fatal("scenario injected no faults — the fault families were tested vacuously")
	}

	// Per-class delay histograms were recorded at eject: their combined
	// count over stream classes equals the delivered counter (both reset
	// at the warmup boundary), and their sum equals the accumulated
	// latency total.
	var streamCount int64
	var streamSum float64
	for _, h := range snap.Histograms {
		if h.Name != "mmr_net_delay_cycles" {
			continue
		}
		if strings.Contains(h.Labels, "best-effort") {
			if h.Count != stats.BEDelivered {
				t.Errorf("BE delay histogram count %d != BEDelivered %d", h.Count, stats.BEDelivered)
			}
			continue
		}
		streamCount += h.Count
		streamSum += h.Sum
	}
	if streamCount != stats.FlitsDelivered {
		t.Errorf("stream delay histogram count %d != FlitsDelivered %d", streamCount, stats.FlitsDelivered)
	}
	if want := stats.Latency.Mean() * float64(stats.Latency.N()); streamSum < want-0.5 || streamSum > want+0.5 {
		t.Errorf("stream delay histogram sum %.1f != latency total %.1f", streamSum, want)
	}

	// Grants were executed (hot-path counter family), and the occupancy
	// gauges exist for every port.
	if familyTotal(snap, "mmr_net_grants_total") == 0 {
		t.Error("no switch grants counted")
	}
	if v, ok := gaugeTotal(snap, "mmr_net_cycles", ""); !ok || v != float64(stats.Cycles) {
		t.Errorf("mmr_net_cycles gauge = %v, want %d", v, stats.Cycles)
	}
}

// metricsScenario is detScenario's fault variant returning the live
// network (caller shuts it down) so metrics can be gathered from it.
func metricsScenario(t *testing.T) (*Network, *Stats) {
	t.Helper()
	nets := buildDetNetwork(t, true)
	nets.Run(1200)
	nets.ResetStats()
	nets.Run(1800)
	return nets, nets.Stats()
}

// TestFlightRecorderCapturesFaults: injected link faults and broken
// connections appear in the flight-recorder dump with decoded names.
func TestFlightRecorderCapturesFaults(t *testing.T) {
	n, st := metricsScenario(t)
	if st.FaultsInjected == 0 {
		t.Fatal("scenario injected no faults")
	}
	var b strings.Builder
	n.DumpFlight(&b)
	dump := b.String()
	for _, want := range []string{"link-down", "link-up", "conn-broken"} {
		if !strings.Contains(dump, want) {
			t.Errorf("flight dump missing %q:\n%s", want, dump)
		}
	}
}

// TestFlightSinkDumpsOnFault: with a sink installed, fault transitions
// dump the recorders automatically.
func TestFlightSinkDumpsOnFault(t *testing.T) {
	var b strings.Builder
	n := buildDetNetwork(t, true)
	n.SetFlightSink(&b)
	n.Run(600) // past the cycle-500 FailLinkAt
	if out := b.String(); !strings.Contains(out, "fault transition") || !strings.Contains(out, "link-down") {
		t.Errorf("no automatic flight dump on fault:\n%.400s", out)
	}
}

// TestMetricsGatherDeterministic: gathered snapshots are identical from
// one run of a scenario to the next, like the stats snapshots they mirror
// (the registry and the per-node shards are merged in a fixed order).
func TestMetricsGatherDeterministic(t *testing.T) {
	render := func() string {
		n := buildDetNetwork(t, true)
		n.Run(1200)
		n.ResetStats()
		n.Run(800)
		var b strings.Builder
		if err := n.GatherMetrics().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if ref, got := render(), render(); got != ref {
		t.Error("prometheus rendering differs between two runs of one scenario")
	}
}

// TestMetricSeriesOrder pins the order the fabric registers its series
// in. That order is checkpoint wire format: a checkpoint carries each
// node's shard as bare tables (nodeState), restore checks only their
// lengths, and a registry that registered two counters the other way round
// would load every checkpoint written before it with the two silently
// swapped. The lists are the order at the commit this test was added on
// (a two-router wire: radix 2, so two of each per-port series); adding a
// series is a format change and appends here, nothing reorders.
func TestMetricSeriesOrder(t *testing.T) {
	tp := topology.New(2, 1)
	if err := tp.Connect(0, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	n, err := New(DefaultConfig(tp))
	if err != nil {
		t.Fatal(err)
	}
	snap := n.GatherMetrics()
	var counters, gauges, hists []string
	for _, s := range snap.Counters {
		counters = append(counters, s.Name+"{"+s.Labels+"}")
	}
	for _, s := range snap.Gauges {
		gauges = append(gauges, s.Name+"{"+s.Labels+"}")
	}
	for _, s := range snap.Histograms {
		hists = append(hists, s.Name+"{"+s.Labels+"}")
	}
	check := func(kind string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%d %s series registered, the checkpoint format has %d", len(got), kind, len(want))
		}
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i] != want[i] {
				t.Errorf("%s %d is %s, the checkpoint format has %s there", kind, i, got[i], want[i])
			}
		}
	}
	check("counter", counters, []string{
		`mmr_net_grants_total{port="0"}`,
		`mmr_net_grants_total{port="1"}`,
		`mmr_net_claim_failed_total{}`,
		`mmr_net_dead_output_skips_total{}`,
		`mmr_net_flits_generated_total{}`,
		`mmr_net_flits_delivered_total{}`,
		`mmr_net_link_flits_total{}`,
		`mmr_net_be_generated_total{}`,
		`mmr_net_be_delivered_total{}`,
		`mmr_net_flits_dropped_total{}`,
		`mmr_net_flits_corrupted_total{}`,
		`mmr_net_sched_nominated_total{}`,
		`mmr_net_sched_credit_stalled_total{}`,
		`mmr_net_sched_round_exhausted_total{}`,
		`mmr_net_sched_bias_boosted_total{}`,
		`mmr_net_setup_attempts_total{}`,
		`mmr_net_setup_accepted_total{}`,
		`mmr_net_setup_rejected_total{}`,
		`mmr_net_setup_retries_total{}`,
		`mmr_net_conns_closed_total{}`,
		`mmr_net_faults_injected_total{}`,
		`mmr_net_faults_repaired_total{}`,
		`mmr_net_fault_flits_lost_total{}`,
		`mmr_net_conns_broken_total{}`,
		`mmr_net_conns_restored_total{}`,
		`mmr_net_conns_degraded_total{}`,
		`mmr_net_conns_promoted_total{}`,
		`mmr_net_conns_lost_total{}`,
	})
	check("gauge", gauges, []string{
		`mmr_net_vc_occupied_flits{port="0"}`,
		`mmr_net_vc_reserved{port="0"}`,
		`mmr_net_guaranteed_load{port="0"}`,
		`mmr_net_vc_occupied_flits{port="1"}`,
		`mmr_net_vc_reserved{port="1"}`,
		`mmr_net_guaranteed_load{port="1"}`,
		`mmr_net_cycles{}`,
		`mmr_net_switch_utilization{}`,
	})
	check("histogram", hists, []string{
		`mmr_net_delay_cycles{class="cbr"}`,
		`mmr_net_jitter_cycles{class="cbr"}`,
		`mmr_net_delay_cycles{class="vbr"}`,
		`mmr_net_jitter_cycles{class="vbr"}`,
		`mmr_net_delay_cycles{class="control"}`,
		`mmr_net_jitter_cycles{class="control"}`,
		`mmr_net_delay_cycles{class="best-effort"}`,
		`mmr_net_jitter_cycles{class="best-effort"}`,
	})
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

// counterTotal is the Total of the counter series name with exactly the
// rendered labels ("" for the unlabeled series).
func counterTotal(s *metrics.Snapshot, name, labels string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name && c.Labels == labels {
			return c.Total, true
		}
	}
	return 0, false
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
