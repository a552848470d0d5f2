// Command mmrnet simulates a multi-router MMR fabric: it builds a
// topology, opens randomly placed connections with EPB establishment,
// optionally adds best-effort traffic, runs the flit-level datapath and
// prints end-to-end statistics.
//
// Examples:
//
//	mmrnet -topo mesh -w 4 -h 4 -conns 64
//	mmrnet -topo irregular -nodes 16 -degree 3 -conns 100 -be 0.01
//	mmrnet -topo torus -w 4 -h 4 -conns 80 -rate 55
//
// Fault injection (see docs/faults.md):
//
//	mmrnet -topo irregular -conns 64 -fault-links 3 -fault-downtime 5000
//	mmrnet -topo mesh -conns 48 -fault-mtbf 20000 -fault-mttr 2000
//	mmrnet -topo mesh -conns 48 -fault-links 2 -no-restore -fault-drop 0.001
//
// Live observability (see docs/observability.md):
//
//	mmrnet -conns 64 -cycles 500000 -metrics-addr :9090
//	mmrnet -conns 48 -fault-links 2 -metrics-interval 10000 -flight-dump
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mmr/internal/faults"
	"mmr/internal/flit"
	"mmr/internal/metrics"
	"mmr/internal/network"
	"mmr/internal/routing"
	"mmr/internal/sim"
	"mmr/internal/stats"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// simOpts carries everything main's flags configure, so run is callable
// (and testable) without a flag.FlagSet or a process exit.
type simOpts struct {
	topo          string
	w, h          int
	nodes, degree int
	ports         int
	ftK           int
	dfA, dfP, dfH int
	route         string
	conns         int
	rate          float64
	vbr           float64
	be            float64
	cycles        int64
	warmup        int64
	vcs           int
	seed          uint64
	noIdleSkip    bool

	faultLinks    int
	faultDowntime int64
	faultMTBF     float64
	faultMTTR     float64
	faultDrop     float64
	faultSeed     uint64
	noRestore     bool
	noDegrade     bool

	metricsAddr     string // serve /metrics, /metrics.json, /flight, /debug/pprof on this address
	metricsInterval int64  // print a progress summary to diag every N measured cycles (0 = off)
	flightDump      bool   // dump the flight recorder to diag on every fault transition

	// Daemon mode (daemon.go): -serve runs the fabric behind an HTTP
	// control API instead of a batch simulation.
	serve              bool
	serveAddr          string
	checkpoint         string        // snapshot path (periodic + final on drain)
	checkpointInterval int64         // cycles between periodic snapshots (0 = final only)
	restore            bool          // resume the fabric from -checkpoint at startup
	pace               time.Duration // wall-clock duration of one flit cycle (0 = free-run)

	// afterRun, when non-nil, is called after the final snapshot is
	// published and the report printed, while the metrics server (addr)
	// is still serving. Tests use it to scrape the live endpoint.
	afterRun func(addr string, n *network.Network)
	// afterServe, when non-nil, is called with the daemon's bound listen
	// address once the control API is up. Tests use it to find the port.
	afterServe func(addr string)
	// sigc, when non-nil, delivers SIGINT/SIGTERM: a batch run flushes
	// the flight recorders and prints a partial report; the daemon
	// drains gracefully (final checkpoint + flight flush).
	sigc <-chan os.Signal
}

func defaultOpts() simOpts {
	return simOpts{
		topo: "mesh", w: 4, h: 4, nodes: 16, degree: 3, ports: 4,
		ftK: 4, dfA: 4, dfP: 2, dfH: 2, route: "minimal",
		conns: 48, cycles: 50_000, warmup: 10_000, vcs: 64, seed: 1,
		faultDowntime: 5000, faultMTTR: 1000,
		serveAddr: "127.0.0.1:9191",
	}
}

// buildTopology constructs the topology the flags describe. Irregular
// topologies draw their wiring from rng, so the caller controls whether
// those draws share a stream with later placement decisions.
func buildTopology(o simOpts, rng *sim.RNG) (*topology.Topology, error) {
	switch o.topo {
	case "mesh":
		return topology.Mesh(o.w, o.h, o.ports)
	case "torus":
		return topology.Torus(o.w, o.h, o.ports)
	case "irregular":
		return topology.Irregular(o.nodes, o.ports, o.degree, rng)
	case "fattree":
		return topology.FatTree(o.ftK)
	case "dragonfly":
		return topology.Dragonfly(o.dfA, o.dfP, o.dfH)
	default:
		return nil, fmt.Errorf("unknown topology %q", o.topo)
	}
}

// routeMode parses the -route flag.
func routeMode(s string) (routing.RouteMode, error) {
	switch s {
	case "", "minimal":
		return routing.RouteMinimal, nil
	case "valiant":
		return routing.RouteValiant, nil
	case "ugal":
		return routing.RouteUGAL, nil
	default:
		return 0, fmt.Errorf("unknown route mode %q (want minimal, valiant or ugal)", s)
	}
}

// buildConfig maps the flags onto a network config. Batch runs and the
// daemon share it, so a daemon restarted with the same flags hashes to
// the same fabric configuration and can restore its checkpoints.
func buildConfig(o simOpts, tp *topology.Topology) network.Config {
	cfg := network.DefaultConfig(tp)
	cfg.Route, _ = routeMode(o.route) // validated before any config is built
	cfg.VCs = o.vcs
	cfg.Seed = o.seed
	cfg.NoIdleSkip = o.noIdleSkip
	cfg.Fault.Restore = !o.noRestore
	cfg.Fault.Degrade = !o.noDegrade
	return cfg
}

// validateOpts rejects nonsensical or contradictory flag combinations
// before any simulation state is built. set holds the names of flags the
// user passed explicitly (flag.Visit), so defaults never trip the
// mode-contradiction checks.
func validateOpts(o simOpts, set map[string]bool) error {
	switch {
	case o.vcs < 1:
		return fmt.Errorf("-vcs must be at least 1, got %d", o.vcs)
	case o.ports < 1:
		return fmt.Errorf("-ports must be at least 1, got %d", o.ports)
	case o.conns < 0:
		return fmt.Errorf("-conns must be non-negative, got %d", o.conns)
	case o.cycles < 0 || o.warmup < 0:
		return fmt.Errorf("-cycles and -warmup must be non-negative, got %d and %d", o.cycles, o.warmup)
	case o.rate < 0:
		return fmt.Errorf("-rate must be non-negative, got %g", o.rate)
	case o.vbr < 0 || o.vbr > 1:
		return fmt.Errorf("-vbr is a fraction in [0,1], got %g", o.vbr)
	case o.be < 0 || o.be > 1:
		return fmt.Errorf("-be is packets a cycle in [0,1], got %g", o.be)
	case o.faultLinks < 0 || o.faultDowntime < 0:
		return fmt.Errorf("-fault-links and -fault-downtime must be non-negative")
	case o.faultMTBF < 0 || o.faultMTTR < 0:
		return fmt.Errorf("-fault-mtbf and -fault-mttr must be non-negative")
	case o.faultDrop < 0 || o.faultDrop > 1:
		return fmt.Errorf("-fault-drop is a probability in [0,1], got %g", o.faultDrop)
	case o.metricsInterval < 0:
		return fmt.Errorf("-metrics-interval must be non-negative, got %d", o.metricsInterval)
	case o.checkpointInterval < 0:
		return fmt.Errorf("-checkpoint-interval must be non-negative, got %d", o.checkpointInterval)
	}
	if _, err := routeMode(o.route); err != nil {
		return err
	}
	if o.serve {
		// The daemon runs an open-ended fabric: batch-run shaping flags
		// and the finite-horizon fault plan contradict it, and the control
		// API already serves the metrics endpoints.
		for _, f := range []string{"conns", "cycles", "warmup", "rate", "vbr", "be",
			"fault-links", "fault-mtbf", "fault-mttr", "fault-drop", "fault-downtime",
			"metrics-addr", "metrics-interval"} {
			if set[f] {
				return fmt.Errorf("-%s is a batch-run flag and contradicts -serve", f)
			}
		}
		if o.restore && o.checkpoint == "" {
			return fmt.Errorf("-restore needs -checkpoint to name the snapshot to resume from")
		}
		if o.checkpointInterval > 0 && o.checkpoint == "" {
			return fmt.Errorf("-checkpoint-interval needs -checkpoint to name the snapshot path")
		}
		if o.pace < 0 {
			return fmt.Errorf("-pace must be non-negative, got %v", o.pace)
		}
	} else {
		for _, f := range []string{"serve-addr", "checkpoint", "checkpoint-interval", "restore", "pace"} {
			if set[f] {
				return fmt.Errorf("-%s only applies in daemon mode; add -serve", f)
			}
		}
	}
	return nil
}

func main() {
	o := defaultOpts()
	flag.StringVar(&o.topo, "topo", o.topo, "topology: mesh, torus, irregular, fattree, dragonfly")
	flag.IntVar(&o.w, "w", o.w, "mesh/torus width")
	flag.IntVar(&o.h, "h", o.h, "mesh/torus height")
	flag.IntVar(&o.nodes, "nodes", o.nodes, "irregular topology node count")
	flag.IntVar(&o.degree, "degree", o.degree, "irregular topology average degree")
	flag.IntVar(&o.ftK, "ft-k", o.ftK, "fat-tree arity k (even: k pods of k routers plus (k/2)² core routers)")
	flag.IntVar(&o.dfA, "df-a", o.dfA, "dragonfly routers per group")
	flag.IntVar(&o.dfP, "df-p", o.dfP, "dragonfly host-facing ports per router (shape bookkeeping)")
	flag.IntVar(&o.dfH, "df-h", o.dfH, "dragonfly global links per router")
	flag.StringVar(&o.route, "route", o.route, "establishment routing: minimal (EPB search), valiant, ugal")
	flag.IntVar(&o.ports, "ports", o.ports, "inter-router ports per router")
	flag.IntVar(&o.conns, "conns", o.conns, "connections to open at random endpoints")
	flag.Float64Var(&o.rate, "rate", o.rate, "connection rate in Mbps (0 = draw from the paper's rate set)")
	flag.Float64Var(&o.vbr, "vbr", o.vbr, "fraction of connections that are VBR (peak 3×)")
	flag.Float64Var(&o.be, "be", o.be, "best-effort packets/cycle per node pair (adds 2×nodes flows)")
	flag.Int64Var(&o.cycles, "cycles", o.cycles, "measured cycles after warmup")
	flag.Int64Var(&o.warmup, "warmup", o.warmup, "warmup cycles")
	flag.IntVar(&o.vcs, "vcs", o.vcs, "virtual channels per input port")
	flag.Uint64Var(&o.seed, "seed", o.seed, "simulation seed")
	flag.BoolVar(&o.noIdleSkip, "no-idle-skip", o.noIdleSkip,
		"disable activity gating and idle-cycle elision (results are identical either way)")
	flag.IntVar(&o.faultLinks, "fault-links", o.faultLinks, "random link failures to inject during the measured run")
	flag.Int64Var(&o.faultDowntime, "fault-downtime", o.faultDowntime, "cycles a -fault-links failure lasts (0 = permanent)")
	flag.Float64Var(&o.faultMTBF, "fault-mtbf", o.faultMTBF, "mean cycles between stochastic failures per link (0 = off)")
	flag.Float64Var(&o.faultMTTR, "fault-mttr", o.faultMTTR, "mean repair time for stochastic failures")
	flag.Float64Var(&o.faultDrop, "fault-drop", o.faultDrop, "per-flit drop probability on every link")
	flag.Uint64Var(&o.faultSeed, "fault-seed", o.faultSeed, "fault plan seed (0 = derive from -seed)")
	flag.BoolVar(&o.noRestore, "no-restore", o.noRestore, "disable re-establishment of fault-broken connections")
	flag.BoolVar(&o.noDegrade, "no-degrade", o.noDegrade, "disable best-effort fallback for unrestorable connections")
	flag.StringVar(&o.metricsAddr, "metrics-addr", o.metricsAddr,
		"serve /metrics, /metrics.json, /flight and /debug/pprof on this address (e.g. :9090; empty = off)")
	flag.Int64Var(&o.metricsInterval, "metrics-interval", o.metricsInterval,
		"print a progress summary to stderr every N measured cycles (0 = off)")
	flag.BoolVar(&o.flightDump, "flight-dump", o.flightDump,
		"dump the per-router flight recorders to stderr on every fault transition")
	flag.BoolVar(&o.serve, "serve", o.serve,
		"run as a long-lived daemon behind an HTTP control API instead of a batch simulation")
	flag.StringVar(&o.serveAddr, "serve-addr", o.serveAddr, "daemon control API listen address")
	flag.StringVar(&o.checkpoint, "checkpoint", o.checkpoint,
		"daemon snapshot path: written every -checkpoint-interval cycles and on graceful shutdown")
	flag.Int64Var(&o.checkpointInterval, "checkpoint-interval", o.checkpointInterval,
		"cycles between periodic daemon snapshots (0 = only the final one)")
	flag.BoolVar(&o.restore, "restore", o.restore,
		"resume the daemon's fabric from the -checkpoint snapshot at startup")
	flag.DurationVar(&o.pace, "pace", o.pace,
		"daemon wall-clock duration of one flit cycle (103ns matches the router's real rate; 0 = free-run)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateOpts(o, set); err != nil {
		fmt.Fprintln(os.Stderr, "mmrnet:", err)
		os.Exit(2)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	o.sigc = sigc

	var err error
	if o.serve {
		err = runDaemon(o, os.Stdout, os.Stderr, o.sigc)
	} else {
		err = run(o, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmrnet:", err)
		os.Exit(1)
	}
}

func run(o simOpts, out, diag io.Writer) error {
	rng := sim.NewRNG(o.seed)
	tp, err := buildTopology(o, rng)
	if err != nil {
		return err
	}
	n, err := network.New(buildConfig(o, tp))
	if err != nil {
		return err
	}
	if o.flightDump {
		n.SetFlightSink(diag)
	}

	// Fault plan: scheduled random link failures land inside the measured
	// window; stochastic churn and impairments cover the whole run.
	fseed := o.faultSeed
	if fseed == 0 {
		fseed = o.seed ^ 0xfa017
	}
	plan := faults.NewPlan(fseed)
	horizon := o.warmup + o.cycles
	if o.faultLinks > 0 {
		window := o.cycles / 2
		if window < 1 {
			window = 1
		}
		plan.RandomLinkFailures(tp, o.faultLinks, o.warmup+o.cycles/10, window, o.faultDowntime)
	}
	if o.faultMTBF > 0 {
		plan.WithMTBF(o.faultMTBF, o.faultMTTR)
	}
	if o.faultDrop > 0 {
		for _, l := range tp.Links {
			plan.Impair(l.A, l.APort, o.faultDrop, 0)
			plan.Impair(l.B, l.BPort, o.faultDrop, 0)
		}
	}
	injectFaults := len(plan.Events) > 0 || len(plan.Impairments) > 0 || plan.MTBF > 0
	if injectFaults {
		if err := n.ApplyPlan(plan, horizon); err != nil {
			return err
		}
	}

	opened, backtracks := 0, 0
	for i := 0; i < o.conns; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src == dst {
			dst = (dst + 1) % tp.Nodes
		}
		spec := traffic.ConnSpec{Class: flit.ClassCBR}
		if o.rate > 0 {
			spec.Rate = traffic.Rate(o.rate) * traffic.Mbps
		} else {
			spec.Rate = traffic.PaperRates[rng.Intn(len(traffic.PaperRates))]
		}
		if o.vbr > 0 && rng.Float64() < o.vbr {
			spec.Class = flit.ClassVBR
			spec.PeakRate = traffic.Rate(3 * float64(spec.Rate))
			spec.Priority = rng.Intn(4)
		}
		c, err := n.Open(src, dst, spec)
		if err == nil {
			opened++
			backtracks += c.Backtracks
		}
	}
	if o.be > 0 {
		added := 0
		for i := 0; i < 2*tp.Nodes; i++ {
			src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
			if src == dst {
				continue
			}
			if _, err := n.AddBestEffortFlow(src, dst, o.be); err == nil {
				added++
			}
		}
		fmt.Fprintf(out, "best-effort flows: %d at %.3f packets/cycle each\n", added, o.be)
	}

	// Optional live endpoint: the run loop below publishes snapshots
	// between chunks; handlers never touch live registry shards.
	var srv *metrics.Server
	if o.metricsAddr != "" {
		srv = metrics.NewServer()
		if err := srv.Serve(o.metricsAddr); err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(diag, "mmrnet: serving /metrics and /debug/pprof on http://%s\n", srv.Addr())
	}
	publish := func() {
		if srv == nil {
			return
		}
		srv.Publish(n.GatherMetrics())
		var b strings.Builder
		n.DumpFlight(&b)
		srv.PublishFlight(b.String())
	}

	interrupted := runChunked(n, o.warmup, o, srv, publish, nil)
	if !interrupted {
		n.ResetStats()
		progress := func(done int64) {
			st := n.Stats()
			fmt.Fprintf(diag, "mmrnet: cycle %d/%d delivered=%d latency=%.2f jitter=%.3f broken=%d\n",
				done, o.cycles, st.FlitsDelivered, st.Latency.Mean(), st.Jitter.Mean(), st.ConnsBroken)
		}
		if o.metricsInterval <= 0 {
			progress = nil
		}
		interrupted = runChunked(n, o.cycles, o, srv, publish, progress)
	}
	if interrupted {
		// Even a cut-short batch run leaves its evidence behind: the
		// flight recorders and the partial report below.
		fmt.Fprintf(diag, "mmrnet: interrupted at cycle %d — flushing flight recorders, printing the partial report\n", n.Now())
		n.DumpFlight(diag)
	}
	st := n.Stats()
	publish()

	fmt.Fprintf(out, "topology    %s: %d routers, %d links, host port = port %d\n",
		o.topo, tp.Nodes, len(tp.Links), tp.Ports)
	fmt.Fprintf(out, "setup       %d/%d connections accepted (%.1f%%), %d probe backtracks, mean setup %.1f cycles\n",
		opened, o.conns, 100*float64(opened)/float64(o.conns), backtracks, st.SetupLatency.Mean())
	fmt.Fprintf(out, "delivered   %d stream flits over %d cycles\n", st.FlitsDelivered, st.Cycles)
	fmt.Fprintf(out, "latency     %.2f cycles end-to-end (min %s, max %s)\n",
		st.Latency.Mean(),
		stats.FormatAccumCell(&st.Latency, "min", "%.0f"),
		stats.FormatAccumCell(&st.Latency, "max", "%.0f"))
	fmt.Fprintf(out, "jitter      %.3f cycles\n", st.Jitter.Mean())
	if st.BEGenerated > 0 {
		fmt.Fprintf(out, "best-effort %d/%d packets delivered, latency %.2f cycles\n",
			st.BEDelivered, st.BEGenerated, st.BELatency.Mean())
	}
	if injectFaults {
		fmt.Fprintf(out, "faults      %d link failures injected, %d repaired, %d flits lost, %d dropped on impaired links\n",
			st.FaultsInjected, st.FaultsRepaired, st.FaultFlitsLost, st.FlitsDropped)
		fmt.Fprintf(out, "healing     %d conns broken, %d restored (mean %s cycles, max %s), %d degraded, %d promoted, %d lost, %d setup retries\n",
			st.ConnsBroken, st.ConnsRestored,
			stats.FormatAccumCell(&st.RestoreLatency, "mean", "%.0f"),
			stats.FormatAccumCell(&st.RestoreLatency, "max", "%.0f"),
			st.ConnsDegraded, st.ConnsPromoted, st.ConnsLost, st.SetupRetries)
		for _, ev := range n.SessionEvents() {
			if ev.Kind == "conn-degraded" || ev.Kind == "conn-promoted" || ev.Kind == "conn-lost" {
				fmt.Fprintf(out, "  cycle %-8d %s conn %d: %s\n", ev.Cycle, ev.Kind, ev.Conn, ev.Detail)
			}
		}
	}
	if o.afterRun != nil {
		addr := ""
		if srv != nil {
			addr = srv.Addr()
		}
		o.afterRun(addr, n)
	}
	return nil
}

// runChunked advances the simulation `total` cycles and reports whether
// it was cut short by a signal. With a metrics server, interval
// reporting or a signal channel active it steps in chunks so snapshots
// stay fresh and interrupts land promptly; otherwise it is one Run call.
func runChunked(n *network.Network, total int64, o simOpts, srv *metrics.Server, publish func(), progress func(done int64)) bool {
	if total <= 0 {
		return false
	}
	step := o.metricsInterval
	if step <= 0 {
		if srv == nil && o.sigc == nil {
			n.Run(total)
			return false
		}
		step = 5000
	}
	for done := int64(0); done < total; {
		c := step
		if rem := total - done; c > rem {
			c = rem
		}
		n.Run(c)
		done += c
		publish()
		if progress != nil {
			progress(done)
		}
		if o.sigc != nil {
			select {
			case <-o.sigc:
				return true
			default:
			}
		}
	}
	return false
}
