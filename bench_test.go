// Benchmarks a `go test -bench` user expects: one per figure of §5.2 and
// the router's flit cycle. Figure benchmarks use a shortened measurement
// window with a trimmed load sweep; cmd/mmrbench runs the full-resolution
// versions and the ablations. Host cost is measured by perfbench/ (see
// perfbench/README.md), not here.
//
// Key series values are reported as custom benchmark metrics so the
// paper-vs-measured shape is visible straight from the benchmark output
// (e.g. biased vs fixed jitter at 90% load).
package mmr

import (
	"testing"

	"mmr/internal/exp"
	"mmr/internal/router"
	"mmr/internal/sim"
	"mmr/internal/stats"
	"mmr/internal/traffic"
)

// benchOpts is the shortened window used by the figure benchmarks.
func benchOpts() exp.Options {
	return exp.Options{
		Warmup:  3_000,
		Measure: 15_000,
		Seed:    1,
		Loads:   []float64{0.3, 0.6, 0.9},
	}
}

// report pulls one series value out of a figure and reports it as a
// benchmark metric.
func report(b *testing.B, fig *stats.Figure, series string, x float64, metric string) {
	b.Helper()
	s := findSeries(fig, series)
	if s == nil {
		b.Fatalf("series %q missing from %q", series, fig.Title)
	}
	y, ok := s.YAt(x)
	if !ok {
		b.Fatalf("series %q has no point at %v", series, x)
	}
	b.ReportMetric(y, metric)
}

// BenchmarkFigure3 regenerates Figure 3 (jitter vs offered load, fixed
// and biased priorities, 1-8 candidates).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Figure3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, res.Figures[1], "8C biased", 0.9, "jitter-biased8C@0.9")
			report(b, res.Figures[1], "8C fixed", 0.9, "jitter-fixed8C@0.9")
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4 (delay vs offered load).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Figure4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, res.Figures[0], "2C biased", 0.6, "µs-biased2C@0.6")
			report(b, res.Figures[1], "8C biased", 0.9, "µs-biased8C@0.9")
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5 (delay and jitter for biased,
// fixed, Autonet and the perfect switch at 8 candidates).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Figure5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, res.Figures[1], "8C biased", 0.9, "jitter-biased@0.9")
			report(b, res.Figures[1], "DEC (Autonet)", 0.9, "jitter-autonet@0.9")
			report(b, res.Figures[1], "perfect", 0.9, "jitter-perfect@0.9")
		}
	}
}

// BenchmarkRouterStep measures one flit cycle of the paper's 8×8 router
// under a 0.8 workload — the cost that dominates every experiment.
func BenchmarkRouterStep(b *testing.B) {
	benchRouterStep(b, router.PaperConfig(), 0.8)
}

// BenchmarkRouterStepBacklogged is the same cycle in the saturated regime
// the figures' 0.9 column runs in: with one candidate per input the switch
// cannot keep up at 0.9, queues back up and each link scheduler chooses
// among dozens of eligible VCs every cycle.
func BenchmarkRouterStepBacklogged(b *testing.B) {
	cfg := router.PaperConfig()
	exp.SchemeVariant("biased", 1).Mutate(&cfg)
	benchRouterStep(b, cfg, 0.9)
}

func benchRouterStep(b *testing.B, cfg router.Config, load float64) {
	r, err := router.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := traffic.Generate(traffic.WorkloadConfig{
		Ports: cfg.Ports, Link: cfg.Link, Rates: traffic.PaperRates,
		TargetLoad: load, MaxPortLoad: 1,
	}, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.EstablishWorkload(wl); err != nil {
		b.Fatal(err)
	}
	r.Run(5_000, 0) // warm the queues
	// Below saturation the step must stay 0 allocs/op (see alloc_test.go);
	// the backlogged row mints flits for its ever-growing NI queues.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step()
	}
}

// findSeries returns fig's series with the given name, or nil.
func findSeries(fig *stats.Figure, name string) *stats.Series {
	for _, s := range fig.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}
