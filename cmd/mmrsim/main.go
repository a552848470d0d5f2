// Command mmrsim runs one single-router MMR simulation at a chosen
// offered load and scheduling configuration, printing the §5 metrics and
// a per-rate breakdown.
//
// Example:
//
//	mmrsim -load 0.8 -scheme biased -candidates 8
//	mmrsim -load 0.9 -scheme fixed -candidates 2 -cycles 200000
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"mmr/internal/exp"
	"mmr/internal/flit"
	"mmr/internal/router"
	"mmr/internal/sim"
	"mmr/internal/stats"
	"mmr/internal/traffic"
)

func main() {
	var (
		load       = flag.Float64("load", 0.8, "offered load as a fraction of switch bandwidth")
		scheme     = flag.String("scheme", "biased", "scheduling scheme: biased, fixed, autonet, perfect")
		cands      = flag.Int("candidates", 8, "link scheduler candidates per input port (1-8 in the paper)")
		ports      = flag.Int("ports", 8, "router radix")
		vcs        = flag.Int("vcs", 256, "virtual channels per input port")
		k          = flag.Int("k", 2, "round multiplier K (round = K × VCs flit cycles)")
		warmup     = flag.Int64("warmup", 20_000, "warmup cycles before measurement")
		cycles     = flag.Int64("cycles", 100_000, "measured cycles (the paper uses ~100,000)")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		byRate     = flag.Bool("by-rate", false, "print per-rate delay/jitter breakdown")
		beRate     = flag.Float64("be", 0, "best-effort packets/cycle/port to mix in")
		verbose    = flag.Bool("v", false, "print workload composition")
		metricsOut = flag.String("metrics", "", "write the metric registry after the run: '-' = Prometheus text on stdout, else a file path (.json for JSON)")
	)
	flag.Parse()

	cfg := router.PaperConfig()
	cfg.Ports = *ports
	cfg.VCM.VirtualChannels = *vcs
	cfg.K = *k
	cfg.Seed = *seed

	variant := exp.SchemeVariant(*scheme, *cands)
	variant.Mutate(&cfg)

	r, err := router.New(cfg)
	if err != nil {
		fail(err)
	}
	wl, err := traffic.Generate(traffic.WorkloadConfig{
		Ports: cfg.Ports, Link: cfg.Link, Rates: traffic.PaperRates,
		TargetLoad: *load, MaxPortLoad: 1,
	}, sim.NewRNG(*seed))
	if err != nil {
		fail(err)
	}
	if _, err := r.EstablishWorkload(wl); err != nil {
		fail(err)
	}
	if *beRate > 0 {
		for p := 0; p < cfg.Ports; p++ {
			if err := r.AddBestEffortFlow(p, (p+cfg.Ports/2)%cfg.Ports, *beRate); err != nil {
				fail(err)
			}
		}
	}
	if *verbose {
		fmt.Printf("workload: %d connections, offered load %.4f (target %.2f)\n",
			len(wl.Conns), wl.OfferedLoad, *load)
	}

	if *metricsOut != "" {
		// Before the run, so the per-class delay/jitter histograms
		// observe the measurement window.
		r.EnableMetrics()
	}

	m := r.Run(*warmup, *cycles)

	fmt.Printf("scheme      %s (%d candidates)\n", variant.Name, *cands)
	fmt.Printf("offered     %.4f of switch bandwidth (%d connections)\n", wl.OfferedLoad, len(wl.Conns))
	fmt.Printf("utilization %.4f\n", m.SwitchUtilization)
	fmt.Printf("delay       %.3f cycles = %.3f µs (mean head-of-VC wait, §5 definition)\n",
		m.Delay.Mean(), m.DelayMicros)
	fmt.Printf("            %.3f cycles end-to-end, source queueing included\n", m.TotalDelay.Mean())
	fmt.Printf("jitter      %.3f cycles (flit-weighted), %.3f cycles (per-connection mean)\n",
		m.Jitter.Mean(), m.ConnMeanJitter.Mean())
	fmt.Printf("delivered   %d stream flits over %d cycles\n", m.FlitsDelivered, m.Cycles)
	if *beRate > 0 {
		fmt.Printf("best-effort %d packets delivered, latency %.2f cycles\n",
			m.PerClassDelivered[flit.ClassBestEffort], m.BestEffortLatency.Mean())
	}

	if *byRate {
		printByRate(r, m)
	}
	if *metricsOut != "" {
		if err := dumpMetrics(r, *metricsOut); err != nil {
			fail(err)
		}
	}
}

// dumpMetrics writes the router's gathered metric snapshot to dst:
// "-" renders Prometheus text on stdout, a path ending in .json writes
// the JSON form, any other path writes Prometheus text.
func dumpMetrics(r *router.Router, dst string) error {
	snap := r.GatherMetrics()
	if dst == "-" {
		return snap.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(dst, ".json") {
		err = snap.WriteJSON(f)
	} else {
		err = snap.WritePrometheus(f)
	}
	return err
}

func printByRate(r *router.Router, m *router.Metrics) {
	byRate := map[float64]*stats.Accumulator{}
	byRateJ := map[float64]*stats.Accumulator{}
	for i, c := range r.Connections() {
		key := float64(c.Spec.Rate)
		if byRate[key] == nil {
			byRate[key] = &stats.Accumulator{}
			byRateJ[key] = &stats.Accumulator{}
		}
		d, j := m.ConnDelay[i], m.ConnJitter[i]
		byRate[key].Merge(&d)
		byRateJ[key].Merge(&j)
	}
	var rates []float64
	for k := range byRate {
		rates = append(rates, k)
	}
	sort.Float64s(rates)
	fmt.Println("\nper-rate breakdown (delay/jitter in cycles):")
	for _, rt := range rates {
		fmt.Printf("  %10s  flits=%-8d delay=%8.3f  jitter=%8.3f\n",
			traffic.Rate(rt), byRate[rt].N(), byRate[rt].Mean(), byRateJ[rt].Mean())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mmrsim:", err)
	os.Exit(1)
}
