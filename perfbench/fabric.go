package main

import (
	"bytes"
	"time"

	"mmr/internal/flit"
	"mmr/internal/network"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// fabric_dense and fabric_sparse: one FatTree(16) under network.DefaultConfig,
// loaded two opposite ways. Both step the fabric serially (Workers=1) in
// fixed-length Run segments.

// edgeRouters lists the edge routers of the first pods pods of FatTree(k),
// in topology.FatTree's numbering: edge(p,i) = p·k + i for i < k/2.
func edgeRouters(k, pods int) []int {
	var out []int
	for p := 0; p < pods; p++ {
		for i := 0; i < k/2; i++ {
			out = append(out, p*k+i)
		}
	}
	return out
}

// streamSpec draws a stream from rates with the repo's usual mix: 30 % VBR
// at three times the average rate, CBR otherwise.
func streamSpec(rng *sim.RNG, rates []traffic.Rate) traffic.ConnSpec {
	spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: rates[rng.Intn(len(rates))]}
	if rng.Float64() < 0.3 {
		spec.Class = flit.ClassVBR
		spec.PeakRate = 3 * spec.Rate
		spec.Priority = rng.Intn(4)
	}
	return spec
}

// cycledSpec is streamSpec with the rate and class taken in rotation by the
// stream's index instead of drawn: every seed then offers the same mix of
// rates, and only where the streams go and when they start depends on the
// seed. The small populations (a few hundred streams over rates two orders of
// magnitude apart) use it, because a drawn mix makes the simulated load
// itself vary by a tenth and more from seed to seed.
func cycledSpec(i int, rng *sim.RNG, rates []traffic.Rate) traffic.ConnSpec {
	spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: rates[i%len(rates)]}
	if (i/len(rates))%10 < 3 {
		spec.Class = flit.ClassVBR
		spec.PeakRate = 3 * spec.Rate
		spec.Priority = rng.Intn(4)
	}
	return spec
}

// otherOf draws a member of nodes different from self.
func otherOf(rng *sim.RNG, nodes []int, self int) int {
	for {
		if d := nodes[rng.Intn(len(nodes))]; d != self {
			return d
		}
	}
}

// denseRequests fills every edge host to 0.6 of its link with sessions to
// random other edge routers at the paper's rates.
func denseRequests(rng *sim.RNG, edges []int, link traffic.Link) []network.OpenReq {
	target := 0.6 * float64(link.Bandwidth)
	smallest := float64(traffic.PaperRates[0])
	var reqs []network.OpenReq
	for _, src := range edges {
		sum := 0.0
		for sum+smallest <= target {
			spec := streamSpec(rng, traffic.PaperRates)
			if sum+float64(spec.Rate) > target {
				continue
			}
			reqs = append(reqs, network.OpenReq{Src: src, Dst: otherOf(rng, edges, src), Spec: spec})
			sum += float64(spec.Rate)
		}
	}
	return reqs
}

// sparseRequests places sessions at the three slowest paper rates, in
// rotation, between edge routers of the active pods only.
func sparseRequests(rng *sim.RNG, edges []int, sessions int) []network.OpenReq {
	reqs := make([]network.OpenReq, 0, sessions)
	for len(reqs) < sessions {
		src := edges[rng.Intn(len(edges))]
		reqs = append(reqs, network.OpenReq{Src: src, Dst: otherOf(rng, edges, src),
			Spec: traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.PaperRates[len(reqs)%3]}})
	}
	return reqs
}

type fabricInst struct {
	name              string
	k                 int
	n                 *network.Network
	windowCycles, seg int64
}

func setupDense(seed uint64, sz *sizes, v variant, tr *tracer) (instance, setupOut, error) {
	return setupFabric("fabric_dense", seed, sz.fabricK, v, tr, sz.denseWarm, sz.denseWindow, sz.denseSeg,
		func(rng *sim.RNG, cfg network.Config) ([]network.OpenReq, [][2]int, float64) {
			edges := edgeRouters(sz.fabricK, sz.fabricK)
			reqs := denseRequests(rng, edges, cfg.Link)
			var be [][2]int
			for _, src := range edges {
				be = append(be, [2]int{src, otherOf(rng, edges, src)})
			}
			return reqs, be, 0.02
		})
}

func setupSparse(seed uint64, sz *sizes, v variant, tr *tracer) (instance, setupOut, error) {
	return setupFabric("fabric_sparse", seed, sz.fabricK, v, tr, sz.sparseWarm, sz.sparseWindow, sz.sparseSeg,
		func(rng *sim.RNG, cfg network.Config) ([]network.OpenReq, [][2]int, float64) {
			edges := edgeRouters(sz.fabricK, sz.sparsePods)
			reqs := sparseRequests(rng, edges, sz.sparseSessions)
			var be [][2]int
			for p := 0; p < sz.sparsePods; p++ {
				src := p * sz.fabricK
				be = append(be, [2]int{src, otherOf(rng, edges, src)})
			}
			return reqs, be, 0.0005
		})
}

// setupFabric builds the fat tree, brings the sessions up with one OpenBatch,
// attaches the best-effort flows and warms the fabric. gen turns the workload
// seed into requests; the simulator sees only those.
func setupFabric(name string, seed uint64, k int, v variant, tr *tracer, warm, window, seg int64,
	gen func(*sim.RNG, network.Config) (reqs []network.OpenReq, be [][2]int, beRate float64)) (instance, setupOut, error) {

	var out setupOut
	t0 := time.Now()
	n, cfg, err := newFabric(k, v, tr)
	if err != nil {
		return nil, out, err
	}
	reqs, be, beRate := gen(sim.NewRNG(seed), cfg)
	t1 := time.Now()
	sp := tr.begin("network.OpenBatch")
	results := n.OpenBatch(reqs)
	tr.end(sp)
	t2 := time.Now()
	for _, r := range results {
		if r.Err == nil {
			out.accepted++
		} else if !isRefusal(r.Err) {
			n.Shutdown()
			return nil, out, r.Err
		}
	}
	sp = tr.begin("network.AddBestEffortFlow")
	for _, f := range be {
		if _, err := n.AddBestEffortFlow(f[0], f[1], beRate); err != nil {
			tr.end(sp)
			n.Shutdown()
			return nil, out, err
		}
	}
	tr.end(sp)
	t3 := time.Now()
	sp = tr.begin("network.Run.warm")
	n.Run(warm)
	tr.end(sp)
	t4 := time.Now()

	out.buildSec = t1.Sub(t0).Seconds()
	out.establishSec = t2.Sub(t1).Seconds()
	out.warmSec = t4.Sub(t3).Seconds()
	out.requests = len(reqs)
	out.warmCycles = warm
	out.backtracks = n.Stats().SetupBacktracks.Mean()
	return &fabricInst{name: name, k: k, n: n, windowCycles: window, seg: seg}, out, nil
}

// newFabric builds FatTree(k) and a network on it with the shipped defaults.
func newFabric(k int, v variant, tr *tracer) (*network.Network, network.Config, error) {
	sp := tr.begin("topology.FatTree")
	tp, err := topology.FatTree(k)
	tr.end(sp)
	if err != nil {
		return nil, network.Config{}, err
	}
	cfg := network.DefaultConfig(tp)
	cfg.NoIdleSkip = v.noIdleSkip
	sp = tr.begin("network.New")
	n, err := network.New(cfg)
	tr.end(sp)
	return n, cfg, err
}

func (f *fabricInst) window(tr *tracer, res *result, workers int) windowOut {
	f.n.SetWorkers(workers)
	before := f.n.Stats()
	t0, c0 := time.Now(), threadCPU()
	sp := tr.begin("network.Run")
	f.n.Run(f.windowCycles)
	tr.end(sp)
	out := windowOut{wallSec: time.Since(t0).Seconds(), cpuSec: (threadCPU() - c0).Seconds(), cycles: f.windowCycles, sim: map[string]float64{}}
	f.n.SetWorkers(1)

	st := f.n.Stats()
	state := checkFabric(f.name, f.n, tr, res)
	res.check(st.FaultFlitsLost == 0 && st.FlitsDropped == 0 && st.FlitsCorrupted == 0,
		"%s: flits lost %d, dropped %d, corrupted %d on a fault-free fabric", f.name, st.FaultFlitsLost, st.FlitsDropped, st.FlitsCorrupted)
	res.check(st.FlitsDelivered > before.FlitsDelivered, "%s: no flit delivered in the window", f.name)

	// Encode → restore into a fresh fabric → encode must reproduce the bytes.
	fresh, _, err := newFabric(f.k, variant{noIdleSkip: f.n.Config().NoIdleSkip}, tr)
	if err == nil {
		sp = tr.begin("network.RestoreState")
		err = fresh.RestoreState(state)
		tr.end(sp)
	}
	var again []byte
	if err == nil {
		sp = tr.begin("network.EncodeState")
		again, err = fresh.EncodeState()
		tr.end(sp)
	}
	res.check(err == nil && bytes.Equal(state, again), "%s: EncodeState -> RestoreState -> EncodeState is not byte-equal (err %v)", f.name, err)
	if fresh != nil {
		fresh.Shutdown()
	}

	out.fingerprint = fabricFingerprint(st, state)
	out.sim["stream_jitter_cycles"] = st.Jitter.Mean()
	out.sim["stream_delay_cycles"] = st.Latency.Mean()
	out.sim["flits_delivered"] = float64(st.FlitsDelivered + st.BEDelivered)
	return out
}

// checkFabric audits the fabric's resource invariants and returns its
// encoded state.
func checkFabric(name string, n *network.Network, tr *tracer, res *result) []byte {
	sp := tr.begin("network.CheckInvariants")
	err := n.CheckInvariants()
	tr.end(sp)
	res.check(err == nil, "%s: CheckInvariants: %v", name, err)
	sp = tr.begin("network.EncodeState")
	state, err := n.EncodeState()
	tr.end(sp)
	res.check(err == nil, "%s: EncodeState: %v", name, err)
	return state
}

// fabricFingerprint hashes the simulated statistics and the encoded state.
func fabricFingerprint(st *network.Stats, state []byte) uint64 {
	fp := newFingerprinter()
	for _, v := range []int64{st.Cycles, st.FlitsGenerated, st.FlitsDelivered, st.LinkFlits, st.BEGenerated, st.BEDelivered,
		st.SetupAttempts, st.SetupAccepted, st.SetupRejected, st.SetupRetries, st.Closed,
		st.FaultsInjected, st.FaultsRepaired, st.FaultFlitsLost, st.FlitsDropped,
		st.ConnsBroken, st.ConnsRestored, st.ConnsDegraded, st.ConnsPromoted, st.ConnsLost} {
		fp.u64(uint64(v))
	}
	for _, v := range []float64{st.Latency.Mean(), st.Jitter.Mean(), st.BELatency.Mean(), st.SetupLatency.Mean(), st.RestoreLatency.Mean()} {
		fp.f64(v)
	}
	fp.bytes(state)
	return fp.sum()
}

// timed makes the given number of Run(seg) calls; each is a unit.
func (f *fabricInst) timed(tr *tracer, res *result, calls int, acc *timedAcc) {
	before := f.n.Stats()
	fused := f.n.FusedDrainCycles()
	acc.unitsPerCall = 1
	now := threadCPU()
	for i := 0; i < calls; i++ {
		sp := tr.begin("network.Run")
		f.n.Run(f.seg)
		tr.end(sp)
		next := threadCPU()
		d := next - now
		now = next
		acc.unit(d)
		acc.runNs = append(acc.runNs, float64(d)/float64(f.seg))
	}
	st := f.n.Stats()
	acc.cycles += f.seg * int64(calls)
	acc.flits += st.FlitsDelivered + st.BEDelivered - before.FlitsDelivered - before.BEDelivered
	acc.linkFlits += st.LinkFlits - before.LinkFlits
	acc.fused += f.n.FusedDrainCycles() - fused
	res.Attempted += int64(calls)
}

func (f *fabricInst) audit(res *result) {
	st := f.n.Stats()
	err := f.n.CheckInvariants()
	res.check(err == nil, "%s after the timed phase: CheckInvariants: %v", f.name, err)
	res.check(st.FaultFlitsLost == 0 && st.FlitsDropped == 0 && st.FlitsCorrupted == 0,
		"%s after the timed phase: flits lost %d, dropped %d, corrupted %d", f.name, st.FaultFlitsLost, st.FlitsDropped, st.FlitsCorrupted)
}

func (f *fabricInst) gatingExact() bool { return true }

func (f *fabricInst) close() { f.n.Shutdown() }
