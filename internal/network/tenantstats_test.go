package network

import (
	"strings"
	"testing"

	"mmr/internal/flit"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// buildTenantNetwork opens CBR connections under two named tenants plus
// the default tenant on a small mesh and runs long enough for every
// tenant to deliver traffic.
func buildTenantNetwork(t *testing.T) (*Network, Config) {
	t.Helper()
	tp, err := topology.Mesh(3, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.Seed = 9
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 20 Mbps CBR on the paper link sends a flit roughly every 60 cycles,
	// so every tenant delivers plenty of traffic within a short run.
	spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: 20 * traffic.Mbps}
	opens := []struct {
		tenant   string
		src, dst int
	}{
		{"alice", 0, 8}, {"alice", 1, 7}, {"bob", 2, 6}, {"", 3, 5},
	}
	for _, o := range opens {
		if _, err := openAs(n, o.tenant, o.src, o.dst, spec); err != nil {
			t.Fatalf("openAs(%q, %d, %d): %v", o.tenant, o.src, o.dst, err)
		}
	}
	return n, cfg
}

// TestTenantDeliveredMetrics: per-tenant delivered counters partition
// the global delivered total, and each tenant's delay histogram count
// matches its counter.
func TestTenantDeliveredMetrics(t *testing.T) {
	n, _ := buildTenantNetwork(t)
	n.Run(2000)

	st := n.Stats()
	if st.FlitsDelivered == 0 {
		t.Fatal("scenario delivered nothing")
	}
	snap := n.GatherMetrics()

	if got := snap.FamilyTotal("mmr_net_tenant_delivered_total"); got != st.FlitsDelivered {
		t.Fatalf("tenant delivered counters sum to %d, Stats says %d", got, st.FlitsDelivered)
	}

	perTenant := map[string]int64{}
	for _, tenant := range []string{"alice", "bob", "default"} {
		labels := `tenant="` + tenant + `"`
		v, ok := snap.CounterTotal("mmr_net_tenant_delivered_total", labels)
		if !ok {
			t.Fatalf("no delivered counter for %s", labels)
		}
		if v <= 0 {
			t.Fatalf("tenant %q delivered %d, want > 0", tenant, v)
		}
		perTenant[tenant] = v

		var hist *struct {
			count int64
			sum   float64
		}
		for _, h := range snap.Histograms {
			if h.Name == "mmr_net_tenant_delay_cycles" && h.Labels == labels {
				var bucketSum int64
				for _, b := range h.Buckets {
					bucketSum += b
				}
				if bucketSum != h.Count {
					t.Fatalf("tenant %q: histogram buckets sum to %d, count %d", tenant, bucketSum, h.Count)
				}
				hist = &struct {
					count int64
					sum   float64
				}{h.Count, h.Sum}
				break
			}
		}
		if hist == nil {
			t.Fatalf("no delay histogram for %s", labels)
		}
		if hist.count != v {
			t.Fatalf("tenant %q: histogram count %d != delivered counter %d", tenant, hist.count, v)
		}
		if hist.sum <= 0 {
			t.Fatalf("tenant %q: delay sum %v, want > 0 (delivery is never zero-delay)", tenant, hist.sum)
		}
	}
	if perTenant["alice"] <= perTenant["bob"]/4 || perTenant["bob"] <= perTenant["alice"]/8 {
		// Alice has two connections to Bob's one; both should land in
		// the same order of magnitude. This is a sanity bound, not an
		// exact split.
		t.Fatalf("implausible tenant split: %v", perTenant)
	}

	var sb strings.Builder
	if err := snap.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`mmr_net_tenant_delivered_total{tenant="alice"}`,
		`mmr_net_tenant_delivered_total{tenant="default"}`,
		`mmr_net_tenant_delay_cycles_count{tenant="bob"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Prometheus exposition missing %q", want)
		}
	}

	// ResetStats clears tenant telemetry along with everything else.
	n.ResetStats()
	snap = n.GatherMetrics()
	if got := snap.FamilyTotal("mmr_net_tenant_delivered_total"); got != 0 {
		t.Fatalf("after ResetStats tenant delivered total = %d, want 0", got)
	}
}

// TestTenantMetricsSurviveRestore: a checkpoint round-trip re-derives
// tenant slots, so telemetry keeps attributing correctly after restore
// even though the slots themselves are not part of the payload.
func TestTenantMetricsSurviveRestore(t *testing.T) {
	n, cfg := buildTenantNetwork(t)
	n.Run(600)
	blob, err := n.EncodeState()
	if err != nil {
		t.Fatal(err)
	}

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	m.ResetStats()
	n.ResetStats()
	n.Run(1400)
	m.Run(1400)

	sn, sm := n.GatherMetrics(), m.GatherMetrics()
	for _, tenant := range []string{"alice", "bob", "default"} {
		labels := `tenant="` + tenant + `"`
		a, okA := sn.CounterTotal("mmr_net_tenant_delivered_total", labels)
		b, okB := sm.CounterTotal("mmr_net_tenant_delivered_total", labels)
		if !okA || !okB {
			t.Fatalf("tenant %q: counter missing (orig %v, restored %v)", tenant, okA, okB)
		}
		if a != b {
			t.Fatalf("tenant %q: original delivered %d, restored delivered %d", tenant, a, b)
		}
		if a == 0 {
			t.Fatalf("tenant %q delivered nothing in the comparison window", tenant)
		}
	}
}
