package network

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmr/internal/flit"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_snapshot.prom from the current implementation")

// TestMetricsSnapshotGolden pins every series the fabric exports — names,
// help texts, labels, order and values, per node — to the Prometheus
// rendering of one small fixed run: CBR and VBR streams of two tenants and
// the default one, a best-effort flow, a session degraded to its
// best-effort fallback by a link failure, and a ResetStats midway. Run with
// -update only for a change that means to move a series.
func TestMetricsSnapshotGolden(t *testing.T) {
	tp, err := topology.Mesh(3, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.VCs = 8
	cfg.Seed = 3
	cfg.Fault = FaultPolicy{Degrade: true, Paranoid: true}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := openAs(n, "video", 0, 8, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 55 * traffic.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openAs(n, "video", 7, 5, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 120 * traffic.Mbps}); err != nil {
		t.Fatal(err)
	}
	if _, err := openAs(n, "audio", 8, 6, traffic.ConnSpec{Class: flit.ClassVBR, Rate: 20 * traffic.Mbps, PeakRate: 40 * traffic.Mbps}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Open(3, 5, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 20 * traffic.Mbps}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddBestEffortFlow(1, 7, 0.02); err != nil {
		t.Fatal(err)
	}
	n.Run(500)
	if err := n.FailLink(victim.Path[0].Node, victim.Path[0].Port); err != nil {
		t.Fatal(err)
	}
	if !victim.Degraded {
		t.Fatal("degenerate scenario: the failed link degraded nothing")
	}
	n.Run(500)
	n.ResetStats()
	n.Run(1_500)
	var b strings.Builder
	if err := n.GatherMetrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	path := filepath.Join("testdata", "metrics_snapshot.prom")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("%s line %d:\ngot  %s\nwant %s", path, i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("%s: got %d lines, want %d", path, len(g), len(w))
	}
}
