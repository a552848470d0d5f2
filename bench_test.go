// Benchmarks regenerating the paper's evaluation: one benchmark per
// figure of §5.2, one per ablation from DESIGN.md, plus microbenchmarks
// of the router's hot paths. Figure benchmarks use a shortened
// measurement window with a trimmed load sweep so `go test -bench=.`
// completes in minutes; cmd/mmrbench runs the full-resolution versions.
//
// Key series values are reported as custom benchmark metrics so the
// paper-vs-measured shape is visible straight from the benchmark output
// (e.g. biased vs fixed jitter at 90% load).
package mmr

import (
	"testing"

	"mmr/internal/exp"
	"mmr/internal/router"
	"mmr/internal/sched"
	"mmr/internal/sim"
	"mmr/internal/stats"
	"mmr/internal/traffic"
)

// benchOpts is the shortened window used by all figure benchmarks.
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
	s := fig.FindSeries(series)
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

// BenchmarkUtilization regenerates the §5.2 candidate-count/utilization
// observation.
func BenchmarkUtilization(b *testing.B) {
	opts := benchOpts()
	opts.Loads = []float64{0.9}
	for i := 0; i < b.N; i++ {
		res, err := exp.UtilizationSweep(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, res.Figures[0], "1C biased", 0.9, "util-1C@0.9")
			report(b, res.Figures[0], "8C biased", 0.9, "util-8C@0.9")
		}
	}
}

// BenchmarkFigureVBR regenerates the VBR/MPEG evaluation (the §6 next
// step, carried out by the follow-on MMR paper).
func BenchmarkFigureVBR(b *testing.B) {
	opts := benchOpts()
	opts.Loads = []float64{0.3, 0.6}
	for i := 0; i < b.N; i++ {
		res, err := exp.FigureVBR(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, res.Figures[1], "8C biased", 0.6, "vbr-jitter-biased@0.6")
			report(b, res.Figures[1], "8C fixed", 0.6, "vbr-jitter-fixed@0.6")
		}
	}
}

// BenchmarkNetworkSweep regenerates the multi-router end-to-end sweep.
func BenchmarkNetworkSweep(b *testing.B) {
	opts := benchOpts()
	opts.Loads = []float64{0.2, 0.4}
	for i := 0; i < b.N; i++ {
		res, err := exp.NetworkSweep(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, res.Figures[0], "latency (cycles)", 0.4, "net-latency@0.4")
		}
	}
}

// Ablation benchmarks (DESIGN.md A1-A10).

func BenchmarkAblationA1LinkSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationA1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationA2Candidates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationA2(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationA3VirtualChannels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationA3(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationA4RoundMultiplier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationA4(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationA5ConcurrencyFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationA5(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationA6HybridTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationA6(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationA7PIMIterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationA7(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationA8VCMBanks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.AblationA8()
	}
}

func BenchmarkAblationA9EPBvsGreedy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationA9(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationA10Arbiters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationA10(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationA11PrioritySchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationA11(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// Microbenchmarks of the router's hot paths.

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

// BenchmarkPriorityArbiter measures one switch-scheduling decision with
// full candidate sets.
func BenchmarkPriorityArbiter(b *testing.B) {
	const n = 8
	arb := sched.NewPriorityArbiter(0)
	cands := make([][]sched.Candidate, n)
	for in := 0; in < n; in++ {
		for o := 0; o < n; o++ {
			cands[in] = append(cands[in], sched.Candidate{
				Input: in, VC: o, Output: (in + o) % n,
				Phase: sched.PhaseGuaranteed, Priority: float64((in*7 + o*3) % 11),
			})
		}
	}
	grants := make([]int, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arb.Schedule(cands, grants)
	}
}

// BenchmarkLinkScheduler measures candidate selection over a 256-VC port
// with a realistic number of eligible channels.
func BenchmarkLinkScheduler(b *testing.B) {
	cfg := router.PaperConfig()
	r, err := router.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := traffic.Generate(traffic.WorkloadConfig{
		Ports: cfg.Ports, Link: cfg.Link, Rates: traffic.PaperRates,
		TargetLoad: 0.9, MaxPortLoad: 1,
	}, sim.NewRNG(2))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.EstablishWorkload(wl); err != nil {
		b.Fatal(err)
	}
	r.Run(2_000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	// Step exercises all 8 link schedulers + arbiter + transmit; report
	// per-step cost at high load.
	for i := 0; i < b.N; i++ {
		r.Step()
	}
}

// BenchmarkEstablishWorkload measures setup cost: building a paper router
// and admitting a full 0.9-load workload through Establish — the price
// every sweep cell pays before its first cycle.
func BenchmarkEstablishWorkload(b *testing.B) {
	cfg := router.PaperConfig()
	wl, err := traffic.Generate(traffic.WorkloadConfig{
		Ports: cfg.Ports, Link: cfg.Link, Rates: traffic.PaperRates,
		TargetLoad: 0.9, MaxPortLoad: 1,
	}, sim.NewRNG(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := router.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		n, err := r.EstablishWorkload(wl)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(n), "conns")
		}
	}
}
