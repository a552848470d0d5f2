package exp

import (
	"fmt"

	"mmr/internal/flit"
	"mmr/internal/network"
	"mmr/internal/routing"
	"mmr/internal/sim"
	"mmr/internal/stats"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// TopoSpec selects the fabric of the network-level sweep. The zero
// value — kind "" — is the goldened default, a 4×4 mesh; the generated
// datacenter fabrics (fat tree, dragonfly) and the non-minimal route
// modes are opt-in and produce their own figures.
type TopoSpec struct {
	Kind string // "", "mesh", "torus", "irregular", "fattree", "dragonfly"

	W, H          int // mesh/torus dimensions (0 → 4)
	Nodes, Degree int // irregular order and average degree (0 → 16, 3)
	Ports         int // mesh/torus/irregular inter-router ports (0 → 4)

	FatTreeK int // fat-tree arity k

	DragonflyA, DragonflyP, DragonflyH int // dragonfly a, p, h

	// Route selects the establishment routing over the fabric:
	// "" or "minimal" (EPB search), "valiant", "ugal".
	Route string
}

func (ts TopoSpec) describe() string {
	switch ts.Kind {
	case "", "mesh":
		return fmt.Sprintf("%d×%d mesh", ts.dim(ts.W), ts.dim(ts.H))
	case "torus":
		return fmt.Sprintf("%d×%d torus", ts.dim(ts.W), ts.dim(ts.H))
	case "irregular":
		n := ts.Nodes
		if n == 0 {
			n = 16
		}
		return fmt.Sprintf("irregular n=%d", n)
	case "fattree":
		return fmt.Sprintf("fat tree k=%d", ts.FatTreeK)
	case "dragonfly":
		return fmt.Sprintf("dragonfly a=%d p=%d h=%d", ts.DragonflyA, ts.DragonflyP, ts.DragonflyH)
	default:
		return ts.Kind
	}
}

func (ts TopoSpec) dim(v int) int {
	if v == 0 {
		return 4
	}
	return v
}

func (ts TopoSpec) ports() int {
	if ts.Ports == 0 {
		return 4
	}
	return ts.Ports
}

// build constructs the topology. Irregular wiring draws from an RNG
// derived from the sweep seed, so the fabric is stable per seed.
func (ts TopoSpec) build(seed uint64) (*topology.Topology, error) {
	switch ts.Kind {
	case "", "mesh":
		return topology.Mesh(ts.dim(ts.W), ts.dim(ts.H), ts.ports())
	case "torus":
		return topology.Torus(ts.dim(ts.W), ts.dim(ts.H), ts.ports())
	case "irregular":
		n, deg := ts.Nodes, ts.Degree
		if n == 0 {
			n = 16
		}
		if deg == 0 {
			deg = 3
		}
		return topology.Irregular(n, ts.ports(), deg, sim.NewRNG(seed*7919+13))
	case "fattree":
		return topology.FatTree(ts.FatTreeK)
	case "dragonfly":
		return topology.Dragonfly(ts.DragonflyA, ts.DragonflyP, ts.DragonflyH)
	default:
		return nil, fmt.Errorf("exp: unknown topology kind %q", ts.Kind)
	}
}

func (ts TopoSpec) routeMode() routing.RouteMode {
	switch ts.Route {
	case "valiant":
		return routing.RouteValiant
	case "ugal":
		return routing.RouteUGAL
	default:
		return routing.RouteMinimal
	}
}

// NetworkSweep exercises the multi-router fabric the paper's router is
// built for (§1: clusters and LANs): a mesh of MMRs (or an opt-in
// generated fabric via Options.Topo) with EPB-established CBR
// connections at increasing total load, reporting end-to-end latency,
// jitter, setup acceptance and probe backtracking.
// This is the network-level experiment the paper defers to future work;
// the single-router trends (jitter bounded, latency ~hops below
// saturation) should survive multi-hop composition.
func NetworkSweep(opts Options) (*FigureResult, error) {
	fig := &stats.Figure{Title: fmt.Sprintf("Network (%s): End-to-End QoS vs. Load", opts.Topo.describe()),
		XLabel: "offered load per host", YLabel: ""}
	latency := fig.AddSeries("latency (cycles)")
	jitter := fig.AddSeries("jitter (cycles)")
	accept := fig.AddSeries("setup acceptance")
	backs := fig.AddSeries("probe backtracks/setup")

	loads := opts.Loads
	if len(loads) == 0 {
		loads = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	}
	// Each point builds its own fabric and RNG from (Seed, load), so the
	// points run side by side and the figure is filled in load order.
	sts := make([]*network.Stats, len(loads))
	errs := make([]error, len(loads))
	forEach(len(loads), func(i int) {
		sts[i], errs[i] = runNetworkPoint(loads[i], opts)
	})
	for i, load := range loads {
		if errs[i] != nil {
			return nil, errs[i]
		}
		st := sts[i]
		// AddAccum skips empty accumulators instead of plotting their
		// fake-zero Mean(): a load point where nothing was delivered (or
		// no setup ever backtracked) leaves a gap, not a bogus 0.
		latency.AddAccum(load, &st.Latency)
		jitter.AddAccum(load, &st.Jitter)
		accept.Add(load, st.AcceptanceRate())
		backs.AddAccum(load, &st.SetupBacktracks)
	}
	return &FigureResult{ID: "net", Figures: []*stats.Figure{fig}}, nil
}

// runNetworkPoint opens connections between random distinct hosts until
// each host's injection reaches the target fraction of its link, then
// measures steady state.
func runNetworkPoint(load float64, opts Options) (*network.Stats, error) {
	tp, err := opts.Topo.build(opts.Seed)
	if err != nil {
		return nil, err
	}
	cfg := network.DefaultConfig(tp)
	cfg.Route = opts.Topo.routeMode()
	cfg.VCs = 64
	cfg.Seed = opts.Seed
	cfg.NoIdleSkip = opts.NoIdleSkip
	n, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(opts.Seed*104729 + uint64(load*1000))
	inj := make([]float64, tp.Nodes)
	for fails := 0; fails < 300; {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		rate := traffic.PaperRates[rng.Intn(len(traffic.PaperRates))]
		frac := float64(rate) / float64(cfg.Link.Bandwidth)
		if src == dst || inj[src]+frac > load {
			fails++
			continue
		}
		if _, err := n.Open(src, dst, traffic.ConnSpec{Class: flit.ClassCBR, Rate: rate}); err != nil {
			fails++
			continue
		}
		fails = 0
		inj[src] += frac
		// Stop when every host is near its target.
		done := true
		for _, v := range inj {
			if v < load-0.01 {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	if n.Stats().SetupAccepted == 0 {
		return nil, fmt.Errorf("exp: no connections established at load %.2f", load)
	}
	n.Run(opts.Warmup)
	n.ResetStats()
	n.Run(opts.Measure)
	return n.Stats(), nil
}
