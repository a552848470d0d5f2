package router

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmr/internal/flit"
	"mmr/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_snapshot.prom from the current implementation")

// TestMetricsSnapshotGolden pins every series the router exports — names,
// help texts, labels, order and values — to the Prometheus rendering of one
// small fixed run carrying every class: CBR and VBR streams, a control flow
// and a best-effort flow. Run with -update only for a change that means to
// move a series.
func TestMetricsSnapshotGolden(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 5
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := []traffic.ConnSpec{
		{Class: flit.ClassCBR, Rate: 120 * traffic.Mbps, In: 0, Out: 1},
		{Class: flit.ClassCBR, Rate: 55 * traffic.Mbps, In: 2, Out: 1},
		{Class: flit.ClassVBR, Rate: 20 * traffic.Mbps, PeakRate: 60 * traffic.Mbps, In: 1, Out: 2},
	}
	for _, spec := range specs {
		if _, err := r.Establish(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.AddControlFlow(3, 0, 0.01); err != nil {
		t.Fatal(err)
	}
	if err := r.AddBestEffortFlow(2, 3, 0.02); err != nil {
		t.Fatal(err)
	}
	r.EnableMetrics()
	r.Run(1_000, 5_000)
	var b strings.Builder
	if err := r.GatherMetrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	path := filepath.Join("testdata", "metrics_snapshot.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
