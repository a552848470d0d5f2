// Command mmrsoak is the long-lived-fabric churn harness: it drives a
// network through a large budget of session events — Poisson connection
// arrivals and departures, flash crowds, regional fault outages — and
// kills and restores the fabric from a checkpoint at random points along
// the way, auditing after every restore that
//
//   - the resource invariants hold (no leaked VCs, credits or bandwidth
//     allocation), via CheckInvariants on the restored fabric,
//   - the clock and the open-connection count are conserved exactly, and
//   - the delivery counters carried over bit-exactly.
//
// Restores deliberately alternate the activity-gating setting, so every
// checkpoint is also a live proof that the serialized state is
// execution-strategy independent.
//
// The default budget is one million session events (`make soak`); CI
// runs a small smoke budget on every push.
//
//	mmrsoak -events 1000000 -kills 25 -seed 7
//	mmrsoak -events 20000 -kills 3 -seed 7     # CI smoke
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"

	"mmr/internal/faults"
	"mmr/internal/flit"
	"mmr/internal/network"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

type soakOpts struct {
	topo          string
	w, h, ports   int
	ftK           int
	dfA, dfP, dfH int
	vcs           int
	events        int64
	kills         int
	seed          uint64
	maxLive       int
	meanGap       float64
	flashEvery    int64
	flashBurst    int
	faultEvery    int64
	downtime      int64
	drainLimit    int64
	reportEvery   int64
	cpuProfile    string
}

func main() {
	o := soakOpts{
		topo: "mesh", w: 4, h: 4, ports: 4, ftK: 4, dfA: 4, dfP: 2, dfH: 2, vcs: 32,
		events: 1_000_000, kills: 25, seed: 7,
		maxLive: 64, meanGap: 4,
		flashEvery: 10_000, flashBurst: 32,
		faultEvery: 5_000, downtime: 1500,
		drainLimit: 2000, reportEvery: 100_000,
	}
	flag.StringVar(&o.topo, "topo", o.topo, "topology: mesh, torus, fattree, dragonfly")
	flag.IntVar(&o.w, "w", o.w, "mesh/torus width")
	flag.IntVar(&o.h, "h", o.h, "mesh/torus height")
	flag.IntVar(&o.ports, "ports", o.ports, "inter-router ports per router (mesh/torus)")
	flag.IntVar(&o.ftK, "ft-k", o.ftK, "fat-tree arity k")
	flag.IntVar(&o.dfA, "df-a", o.dfA, "dragonfly routers per group")
	flag.IntVar(&o.dfP, "df-p", o.dfP, "dragonfly host-facing ports per router")
	flag.IntVar(&o.dfH, "df-h", o.dfH, "dragonfly global links per router")
	flag.IntVar(&o.vcs, "vcs", o.vcs, "virtual channels per input port")
	flag.Int64Var(&o.events, "events", o.events, "session-event budget (opens + closes)")
	flag.IntVar(&o.kills, "kills", o.kills, "fabric kill+restore points spread over the run")
	flag.Uint64Var(&o.seed, "seed", o.seed, "workload seed")
	flag.IntVar(&o.maxLive, "max-live", o.maxLive, "cap on concurrently open connections")
	flag.Float64Var(&o.meanGap, "mean-gap", o.meanGap, "mean cycles between session events (Poisson)")
	flag.Int64Var(&o.flashEvery, "flash-every", o.flashEvery, "events between flash crowds (0 = off)")
	flag.IntVar(&o.flashBurst, "flash-burst", o.flashBurst, "opens per flash crowd")
	flag.Int64Var(&o.faultEvery, "fault-every", o.faultEvery, "events between regional outages (0 = off)")
	flag.Int64Var(&o.downtime, "fault-downtime", o.downtime, "cycles a regional outage lasts")
	flag.Int64Var(&o.drainLimit, "drain-limit", o.drainLimit, "drain cycle budget per close")
	flag.Int64Var(&o.reportEvery, "report-every", o.reportEvery, "events between progress lines (0 = quiet)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", o.cpuProfile, "write a CPU profile to this path")
	flag.Parse()

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmrsoak:", err)
			os.Exit(1)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}

	if err := soak(o); err != nil {
		fmt.Fprintln(os.Stderr, "mmrsoak:", err)
		os.Exit(1)
	}
}

// harness owns the fabric under churn plus the bookkeeping the audits
// need. After a kill+restore the fabric pointer is replaced wholesale;
// everything else is re-derived from the restored state.
type harness struct {
	o    soakOpts
	cfg  network.Config
	tp   *topology.Topology
	rng  *sim.RNG // workload stream: never touched by restores
	n    *network.Network
	live []*network.Conn

	ckptPath     string
	openErrs     map[string]int64
	opens        int64
	opensOK      int64
	closes       int64
	retriesUsed  int64
	flashCrowds  int64
	outages      int64
	restores     int64
	lastFaultEnd int64
}

// buildTopology constructs the soak fabric; kill+restore rebuilds it
// from scratch, so generators must be deterministic per flags.
func buildTopology(o soakOpts) (*topology.Topology, error) {
	switch o.topo {
	case "mesh":
		return topology.Mesh(o.w, o.h, o.ports)
	case "torus":
		return topology.Torus(o.w, o.h, o.ports)
	case "fattree":
		return topology.FatTree(o.ftK)
	case "dragonfly":
		return topology.Dragonfly(o.dfA, o.dfP, o.dfH)
	default:
		return nil, fmt.Errorf("unknown topology %q", o.topo)
	}
}

func soak(o soakOpts) error {
	tp, err := buildTopology(o)
	if err != nil {
		return err
	}
	cfg := network.DefaultConfig(tp)
	cfg.VCs = o.vcs
	cfg.Seed = o.seed ^ 0x50a1c
	n, err := network.New(cfg)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "mmrsoak")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	h := &harness{o: o, cfg: cfg, tp: tp, rng: sim.NewRNG(o.seed), n: n,
		ckptPath: filepath.Join(dir, "soak.ckpt"), openErrs: map[string]int64{}}

	// Kill points: distinct random event counts, sorted ascending.
	killAt := map[int64]bool{}
	for len(killAt) < o.kills {
		at := 1 + int64(h.rng.Intn(int(o.events)))
		killAt[at] = true
	}

	for ev := int64(1); ev <= o.events; ev++ {
		h.n.Run(1 + int64(h.rng.Exp(o.meanGap)))
		h.sessionEvent()
		if o.flashEvery > 0 && ev%o.flashEvery == 0 {
			h.flashCrowd()
		}
		if o.faultEvery > 0 && ev%o.faultEvery == 0 {
			if err := h.regionalOutage(); err != nil {
				return fmt.Errorf("event %d: %w", ev, err)
			}
		}
		if killAt[ev] {
			if err := h.killAndRestore(ev); err != nil {
				return fmt.Errorf("event %d: %w", ev, err)
			}
		}
		if o.reportEvery > 0 && ev%o.reportEvery == 0 {
			st := h.n.Stats()
			fmt.Printf("mmrsoak: %d/%d events, cycle %d, %d live, %d opened, %d closed, %d broken, %d restored, %d kills survived\n",
				ev, o.events, h.n.Now(), len(h.liveConns()), h.opensOK, h.closes, st.ConnsBroken, st.ConnsRestored, h.restores)
		}
	}

	// Settle: with every fault healed and the workload retired, no
	// session may be left permanently degraded and no fallback flow may
	// outlive its owner — this is where a degraded-forever regression
	// fails the soak.
	if err := h.settle(); err != nil {
		return fmt.Errorf("settle audit: %w", err)
	}
	// Final audit: the fabric that survived the whole run must still
	// pass the resource audit, and one last kill+restore must conserve
	// everything.
	if err := h.n.CheckInvariants(); err != nil {
		return fmt.Errorf("final invariant audit: %w", err)
	}
	if err := h.killAndRestore(o.events + 1); err != nil {
		return fmt.Errorf("final restore audit: %w", err)
	}
	st := h.n.Stats()
	fmt.Printf("mmrsoak: PASS — %d session events (%d/%d opens admitted, %d closes), %d flash crowds, %d outages, %d kill+restore cycles, 0 invariant violations, 0 leaked connections\n",
		h.opens+h.closes, h.opensOK, h.opens, h.closes, h.flashCrowds, h.outages, h.restores)
	fmt.Printf("mmrsoak: fabric at cycle %d: %d flits delivered, %d conns broken by faults, %d restored, %d degraded, %d promoted, %d lost\n",
		h.n.Now(), st.FlitsDelivered, st.ConnsBroken, st.ConnsRestored, st.ConnsDegraded, st.ConnsPromoted, st.ConnsLost)
	// FaultFlitsLost/FlitsDropped mix guaranteed and best-effort flits, so
	// the outstanding count below includes BE flits lost to faults.
	fmt.Printf("mmrsoak: best-effort: %d generated, %d delivered, %d in flight, queued, or lost to faults\n",
		st.BEGenerated, st.BEDelivered, st.BEGenerated-st.BEDelivered)
	type refusal struct {
		msg string
		cnt int64
	}
	var refusals []refusal
	for msg, cnt := range h.openErrs {
		refusals = append(refusals, refusal{msg, cnt})
	}
	sort.Slice(refusals, func(i, j int) bool {
		if refusals[i].cnt != refusals[j].cnt {
			return refusals[i].cnt > refusals[j].cnt
		}
		return refusals[i].msg < refusals[j].msg
	})
	for i, r := range refusals {
		if i == 8 {
			rest := int64(0)
			for _, x := range refusals[i:] {
				rest += x.cnt
			}
			fmt.Printf("mmrsoak: %8d × open refused: (%d further causes)\n", rest, len(refusals)-i)
			break
		}
		fmt.Printf("mmrsoak: %8d × open refused: %s\n", r.cnt, r.msg)
	}
	return nil
}

// tracked reports a session the workload still owns. Only terminal
// sessions (closed or lost) leave the pool: broken connections stay —
// the fabric restores them behind the workload's back, and dropping
// them here would leak open sessions that churn can never hang up —
// and degraded sessions stay because real clients hang up degraded
// calls too; their fallback flows must not run forever.
func tracked(c *network.Conn) bool {
	return !c.Closed() && !c.Lost()
}

// closeable reports a tracked session that can be hung up right now.
// Broken connections mid-restoration cannot: their resources are
// already released and Close would refuse them.
func closeable(c *network.Conn) bool {
	return c.Open() || (c.Degraded && !c.Closed())
}

// liveConns lazily compacts the tracked list, dropping sessions that
// reached a terminal state since last checked.
func (h *harness) liveConns() []*network.Conn {
	out := h.live[:0]
	for _, c := range h.live {
		if tracked(c) {
			out = append(out, c)
		}
	}
	h.live = out
	return h.live
}

func (h *harness) randomSpec() traffic.ConnSpec {
	spec := traffic.ConnSpec{Class: flit.ClassCBR,
		Rate: traffic.PaperRates[h.rng.Intn(len(traffic.PaperRates))]}
	if h.rng.Float64() < 0.3 {
		spec.Class = flit.ClassVBR
		spec.PeakRate = 3 * spec.Rate
		spec.Priority = h.rng.Intn(4)
	}
	return spec
}

// sessionEvent performs one open or close, Poisson-style: opens dominate
// until the live cap, closes dominate near it.
func (h *harness) sessionEvent() {
	live := h.liveConns()
	if len(live) > 0 && (len(live) >= h.o.maxLive || h.rng.Float64() < 0.5) {
		// Hang up a random closeable session; sessions broken
		// mid-restoration are skipped — they stay tracked until the
		// fabric revives them.
		start := h.rng.Intn(len(live))
		for i := 0; i < len(live); i++ {
			c := live[(start+i)%len(live)]
			if !closeable(c) {
				continue
			}
			h.closes++
			// A failed drain (fault mid-close, stuck flits) is workload
			// noise, not a harness failure; the invariant audits decide
			// whether state actually leaked.
			h.n.DrainAndClose(c, h.o.drainLimit)
			return
		}
		// Everything tracked is mid-restoration; open instead.
	}
	h.open()
}

func (h *harness) open() {
	src, dst := h.rng.Intn(h.tp.Nodes), h.rng.Intn(h.tp.Nodes)
	if src == dst {
		dst = (dst + 1) % h.tp.Nodes
	}
	h.opens++
	// Every 16th open goes through the journaled retry path so kills
	// sometimes land with a pending durOpenRetry in the checkpoint.
	if h.opens%16 == 0 {
		h.retriesUsed++
		h.n.OpenWithRetry(src, dst, h.randomSpec(), func(c *network.Conn, err error) {
			if err == nil {
				h.opensOK++
				h.live = append(h.live, c)
			} else {
				h.openErrs[err.Error()]++
			}
		})
		return
	}
	if c, err := h.n.Open(src, dst, h.randomSpec()); err == nil {
		h.opensOK++
		h.live = append(h.live, c)
	} else {
		h.openErrs[err.Error()]++
	}
}

// flashCrowd opens a burst of connections back-to-back at one cycle.
func (h *harness) flashCrowd() {
	h.flashCrowds++
	for i := 0; i < h.o.flashBurst; i++ {
		h.open()
	}
}

// regionalOutage fails every router within one hop of a random center,
// restoring them after the configured downtime. Outages never overlap:
// a new one waits until the previous region is back up.
func (h *harness) regionalOutage() error {
	if h.n.Now() <= h.lastFaultEnd {
		return nil
	}
	at := h.n.Now() + 10
	center := h.rng.Intn(h.tp.Nodes)
	plan := faults.NewPlan(h.o.seed^uint64(at)).FailRegionAt(h.tp, center, 1, at, h.o.downtime)
	if err := h.n.ApplyPlan(plan, at+h.o.downtime+1); err != nil {
		return fmt.Errorf("regional outage at node %d: %w", center, err)
	}
	h.outages++
	h.lastFaultEnd = at + h.o.downtime
	return nil
}

// settle retires the workload after the last outage has healed and
// audits the fault lifecycle end state. Each round hangs up every open
// session — freeing guaranteed capacity and triggering re-promotion
// scans — then runs the fabric so backed-off restorations and
// promotions fire; degraded sessions must come back to guaranteed
// service (there is spare capacity for every one of them now) and are
// hung up as open sessions in a later round. A session still tracked
// after the round budget, or any degraded residue or orphaned fallback
// flow at the end, is a lifecycle bug.
func (h *harness) settle() error {
	if gap := h.lastFaultEnd + 1 - h.n.Now(); gap > 0 {
		h.n.Run(gap)
	}
	const settleRounds = 64
	for round := 0; len(h.liveConns()) > 0; round++ {
		if round >= settleRounds {
			degraded := h.n.DegradedLive()
			return fmt.Errorf("%d sessions still live after %d settle rounds (%d of them degraded)",
				len(h.liveConns()), settleRounds, degraded)
		}
		for _, c := range h.liveConns() {
			if c.Open() {
				h.closes++
				h.n.DrainAndClose(c, h.o.drainLimit)
			}
		}
		h.n.Run(4096)
	}
	if got := h.n.DegradedLive(); got != 0 {
		return fmt.Errorf("%d sessions left permanently degraded after every fault healed", got)
	}
	if err := h.n.CheckBEFlowOwners(); err != nil {
		return fmt.Errorf("fallback-flow audit: %w", err)
	}
	return nil
}

func countOpen(n *network.Network) int {
	open := 0
	for _, c := range n.Conns() {
		if c.Open() {
			open++
		}
	}
	return open
}

// killAndRestore checkpoints the fabric to disk, discards it, restores a
// fresh fabric from the file — alternating the gating mode so the
// snapshot is exercised under both — and audits
// conservation: clock, open-connection count, delivery counters and the
// full resource invariants.
func (h *harness) killAndRestore(ev int64) error {
	beforeNow := h.n.Now()
	beforeOpen := countOpen(h.n)
	beforeStats := h.n.Stats()

	if err := h.n.SaveCheckpoint(h.ckptPath); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}

	// A real restart builds everything from scratch, including the
	// topology object (whose live link state the old fabric mutated);
	// the checkpoint must carry the link state itself.
	tp2, err := buildTopology(h.o)
	if err != nil {
		return err
	}
	cfg := h.cfg
	cfg.Topology = tp2
	cfg.NoIdleSkip = h.restores%2 == 1
	n2, err := network.RestoreCheckpoint(cfg, h.ckptPath)
	if err != nil {
		return fmt.Errorf("restore (gating=%v): %w", !cfg.NoIdleSkip, err)
	}
	if n2.Now() != beforeNow {
		return fmt.Errorf("restore lost the clock: %d != %d", n2.Now(), beforeNow)
	}
	if got := countOpen(n2); got != beforeOpen {
		return fmt.Errorf("restore leaked connections: %d open != %d before the kill", got, beforeOpen)
	}
	after := n2.Stats()
	if after.FlitsDelivered != beforeStats.FlitsDelivered ||
		after.FlitsGenerated != beforeStats.FlitsGenerated ||
		after.SetupAccepted != beforeStats.SetupAccepted ||
		after.Closed != beforeStats.Closed ||
		after.ConnsPromoted != beforeStats.ConnsPromoted {
		return fmt.Errorf("restore drifted counters: delivered %d/%d generated %d/%d accepted %d/%d closed %d/%d promoted %d/%d",
			after.FlitsDelivered, beforeStats.FlitsDelivered,
			after.FlitsGenerated, beforeStats.FlitsGenerated,
			after.SetupAccepted, beforeStats.SetupAccepted,
			after.Closed, beforeStats.Closed,
			after.ConnsPromoted, beforeStats.ConnsPromoted)
	}
	if err := n2.CheckInvariants(); err != nil {
		return fmt.Errorf("restored fabric fails the resource audit: %w", err)
	}
	if err := n2.CheckBEFlowOwners(); err != nil {
		return fmt.Errorf("restored fabric fails the fallback-flow audit: %w", err)
	}

	h.n = n2
	h.tp = tp2
	h.restores++
	// The old *Conn pointers died with the old fabric; re-derive the
	// live list from the restored one.
	h.live = h.live[:0]
	for _, c := range n2.Conns() {
		if tracked(c) {
			h.live = append(h.live, c)
		}
	}
	return nil
}
