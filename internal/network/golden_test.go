package network

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
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

// TestRunDigestGolden pins what five fixed runs leave observable — the
// statistics, the session log and the metric snapshot in both renderings —
// as one SHA-256, so that a change meant to leave simulated behaviour alone
// cannot move any of it by a bit. The runs cover the loaded mesh clean and
// under its fault plan (streams, best-effort packets routed up*/down*,
// faults, restoration), and the dense and sparse toy fat trees.
func TestRunDigestGolden(t *testing.T) {
	runs := []struct {
		name   string
		build  func() *Network
		cycles int64
	}{
		{"det-clean", func() *Network { return buildDetNetwork(t, false) }, 6_000},
		{"det-faults", func() *Network { return buildDetNetwork(t, true) }, 6_000},
		{"dense-4", func() *Network { return buildDense(t, 4, false) }, 3_000},
		{"sparse-4", func() *Network { return buildSparse(t, 4, 1, 24, false) }, 30_000},
		{"dense-8", func() *Network { return buildDense(t, 8, false) }, 1_500},
	}
	h := sha256.New()
	for _, r := range runs {
		n := r.build()
		n.Run(r.cycles)
		fmt.Fprintf(h, "%s\n%+v\n%+v\n", r.name, *n.Stats(), n.SessionEvents())
		snap := n.GatherMetrics()
		if err := snap.WritePrometheus(h); err != nil {
			t.Fatal(err)
		}
		if err := snap.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
	}
	const want = "2058c540d3444176201d5cf4335b4973fa6504b289cb8c5f166b5c98f5f8b15a"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("run digest moved:\ngot  %s\nwant %s", got, want)
	}
}
