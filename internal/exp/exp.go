// Package exp is the experiment harness that regenerates every figure of
// the paper's evaluation (§5) plus the ablations DESIGN.md calls out. It
// is shared by cmd/mmrbench, the root package's figure benchmarks and
// perfbench's paper_sweep workload, so the numbers in EXPERIMENTS.md, the
// CLI output and `go test -bench` all come from the same code path.
package exp

import (
	"fmt"
	"runtime"
	"sync"

	"mmr/internal/router"
	"mmr/internal/sched"
	"mmr/internal/sim"
	"mmr/internal/stats"
	"mmr/internal/traffic"
)

// Options controls simulation length and reproducibility. The paper runs
// to steady state and measures over ~100,000 router cycles (§5).
type Options struct {
	Warmup  int64
	Measure int64
	Seed    uint64
	// Loads overrides the offered-load sweep; nil means PaperLoads.
	Loads []float64
	// NoIdleSkip disables activity gating in the simulators: the router's
	// per-port skip and session calendars, and besides those the network's
	// whole-clock fast-forward. Gated and ungated runs are bit-identical —
	// this is the reference side of the equivalence tests and a debugging
	// escape hatch, never needed for figures.
	NoIdleSkip bool
	// Topo selects the fabric of the network-level sweep. The zero value
	// keeps the goldened 4×4 mesh.
	Topo TopoSpec
}

// loads returns the sweep to use.
func (o Options) loads() []float64 {
	if len(o.Loads) > 0 {
		return o.Loads
	}
	return PaperLoads
}

// DefaultOptions mirrors the paper's measurement window.
func DefaultOptions() Options {
	return Options{Warmup: 20_000, Measure: 100_000, Seed: 1}
}

// QuickOptions is a shortened window for benchmarks and smoke runs; the
// curves keep their shape, with more noise at the lightest loads.
func QuickOptions() Options {
	return Options{Warmup: 5_000, Measure: 25_000, Seed: 1}
}

// PaperLoads is the offered-load sweep of Figures 3-5.
var PaperLoads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}

// Variant is one scheduling configuration under test.
type Variant struct {
	Name   string
	Mutate func(*router.Config)
}

// SchemeVariant builds the paper's four §5.1 configurations.
func SchemeVariant(name string, candidates int) Variant {
	switch name {
	case "biased":
		return Variant{
			Name: fmt.Sprintf("%dC biased", candidates),
			Mutate: func(c *router.Config) {
				c.Scheme = sched.Biased{}
				c.Arbiter = router.ArbPriority
				c.Selection = sched.SelectPriority
				c.MaxCandidates = candidates
			},
		}
	case "fixed":
		return Variant{
			Name: fmt.Sprintf("%dC fixed", candidates),
			Mutate: func(c *router.Config) {
				c.Scheme = sched.Fixed{}
				c.Arbiter = router.ArbPriority
				c.Selection = sched.SelectPriority
				c.MaxCandidates = candidates
			},
		}
	case "autonet":
		return Variant{
			Name: "DEC (Autonet)",
			Mutate: func(c *router.Config) {
				c.Scheme = sched.Biased{}
				c.Arbiter = router.ArbAutonet
				c.Selection = sched.SelectRandom
				c.MaxCandidates = candidates
			},
		}
	case "perfect":
		return Variant{
			Name: "perfect",
			Mutate: func(c *router.Config) {
				c.Scheme = sched.Biased{}
				c.Arbiter = router.ArbPerfect
				c.Selection = sched.SelectPriority
				c.MaxCandidates = candidates
			},
		}
	default:
		panic("exp: unknown scheme " + name)
	}
}

// Point is one simulated (load, variant) cell.
type Point struct {
	Load    float64 // target offered load
	Offered float64 // achieved offered load
	Variant string
	M       *router.Metrics
}

// Grid is a full sweep result.
type Grid struct {
	Points []Point
}

// RunPoint simulates one cell: generate the §5 workload at the target
// load, establish it, run to steady state, measure.
func RunPoint(base router.Config, load float64, v Variant, opts Options) (Point, error) {
	cfg := base
	v.Mutate(&cfg)
	cfg.Seed = opts.Seed
	cfg.NoIdleSkip = opts.NoIdleSkip
	r, err := router.New(cfg)
	if err != nil {
		return Point{}, err
	}
	wl, err := traffic.Generate(traffic.WorkloadConfig{
		Ports: cfg.Ports, Link: cfg.Link, Rates: traffic.PaperRates,
		TargetLoad: load, MaxPortLoad: 1,
	}, sim.NewRNG(opts.Seed*1_000_003+uint64(load*1000)))
	if err != nil {
		return Point{}, err
	}
	if _, err := r.EstablishWorkload(wl); err != nil {
		return Point{}, fmt.Errorf("exp: establishing workload at load %.2f: %w", load, err)
	}
	m := r.Run(opts.Warmup, opts.Measure)
	return Point{Load: load, Offered: wl.OfferedLoad, Variant: v.Name, M: m}, nil
}

// forEach calls fn(i) for every i in [0, n) from min(GOMAXPROCS, n)
// goroutines pulling indices from a channel, and returns once every call
// has. Sweep cells are independent simulations with their own seeds, so
// this is where the harness uses more than one CPU; fn must write only
// what belongs to its index. A fixed set of workers, not a goroutine per
// index behind a semaphore: a large sweep would otherwise create hundreds
// of idle goroutines (and their stacks) before any work starts.
func forEach(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// RunGrid sweeps loads × variants, the cells through forEach; the result
// order is deterministic regardless of scheduling.
func RunGrid(base router.Config, loads []float64, variants []Variant, opts Options) (*Grid, error) {
	type cell struct {
		load float64
		v    Variant
	}
	var cells []cell
	for _, load := range loads {
		for _, v := range variants {
			cells = append(cells, cell{load, v})
		}
	}
	points := make([]Point, len(cells))
	errs := make([]error, len(cells))
	forEach(len(cells), func(i int) {
		points[i], errs[i] = RunPoint(base, cells[i].load, cells[i].v, opts)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Grid{Points: points}, nil
}

// Figure projects the grid onto one metric, producing a plottable figure
// with one series per variant.
func (g *Grid) Figure(title, ylabel string, metric func(*router.Metrics) float64) *stats.Figure {
	fig := &stats.Figure{Title: title, XLabel: "offered load", YLabel: ylabel}
	series := map[string]*stats.Series{}
	for _, p := range g.Points {
		s := series[p.Variant]
		if s == nil {
			s = fig.AddSeries(p.Variant)
			series[p.Variant] = s
		}
		s.Add(p.Load, metric(p.M))
	}
	return fig
}

// Standard metric projections used across figures.
var (
	// MetricJitter is Figure 3/5b's y axis: mean jitter in router cycles.
	MetricJitter = func(m *router.Metrics) float64 { return m.Jitter.Mean() }
	// MetricDelayMicros is Figure 4/5a's y axis: mean head-of-VC delay in
	// microseconds (§5's delay definition on the paper link).
	MetricDelayMicros = func(m *router.Metrics) float64 { return m.DelayMicros }
	// MetricConnJitter averages per-connection mean jitter with equal
	// connection weight.
	MetricConnJitter = func(m *router.Metrics) float64 { return m.ConnMeanJitter.Mean() }
	// MetricUtilization is switch utilization (the §5.2 candidate-count
	// discussion).
	MetricUtilization = func(m *router.Metrics) float64 { return m.SwitchUtilization }
	// MetricTotalDelayCycles includes source queueing — the
	// survivorship-proof latency (see EXPERIMENTS.md).
	MetricTotalDelayCycles = func(m *router.Metrics) float64 { return m.TotalDelay.Mean() }
)
