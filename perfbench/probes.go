package main

import (
	"time"

	"mmr/internal/admission"
	"mmr/internal/bitvec"
	"mmr/internal/checkpoint"
	"mmr/internal/flit"
	"mmr/internal/flow"
	"mmr/internal/routing"
	"mmr/internal/sched"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/vcm"
)

// The layer probes drive a lower module directly, at the paper's geometry,
// with inputs drawn from the workload seed. They run the same way in every
// traced run, whatever the workload, so a probe's number compares across
// workloads and commits. Each probe times probeReps batches of a fixed
// operation count and reports the median batch.

var probeSink int

// perOp times reps batches of n calls of fn and returns the median ns per
// call.
func perOp(reps, n int, fn func()) float64 {
	batches := make([]float64, reps)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(batches)
}

// fullMatrix is a candidate set with every input offering a candidate for
// every output: the arbiters' worst case at the paper's 8×8.
func fullMatrix(rng *sim.RNG, n int) [][]sched.Candidate {
	cands := make([][]sched.Candidate, n)
	for in := range cands {
		for o := 0; o < n; o++ {
			cands[in] = append(cands[in], sched.Candidate{
				Input: in, VC: o, Output: (in + o) % n,
				Phase: sched.PhaseGuaranteed, Priority: float64(rng.Intn(1000)),
			})
		}
	}
	return cands
}

func probeArbiters(rng *sim.RNG, reps int, out map[string]float64) {
	const ports = 8
	cands := fullMatrix(rng, ports)
	grants := make([]int, ports)
	for name, arb := range map[string]sched.SwitchScheduler{
		"sched.priority_arbiter_ns": sched.NewPriorityArbiter(0),
		"sched.pim_arbiter_ns":      sched.NewPIMArbiter(sim.NewRNG(rng.Uint64()), 3),
		"sched.islip_arbiter_ns":    sched.NewISLIPArbiter(3),
	} {
		out[name] = perOp(reps, 20_000, func() { arb.Schedule(cands, grants) })
	}
}

// probeLinkScheduler measures candidate selection on a 256-VC memory with 24
// eligible channels and 8 candidates, the paper router's loaded port.
func probeLinkScheduler(rng *sim.RNG, reps int, out map[string]float64) {
	cfg := vcm.PaperConfig()
	mem := vcm.MustNew(cfg)
	credits := flow.NewCredits(cfg.VirtualChannels, cfg.Depth)
	ls := sched.NewLinkScheduler(sched.LinkConfig{MaxCandidates: 8, Outputs: 8, Scheme: sched.Biased{}, Selection: sched.SelectPriority}, mem, credits)
	pool := flit.NewPool()
	for i := 0; i < 24; i++ {
		vc := mem.FindFree(rng.Intn(cfg.VirtualChannels))
		mem.Reserve(vc, vcm.VCState{Conn: flit.ConnID(i), Class: flit.ClassCBR, Allocated: 1 + rng.Intn(8), Peak: 8,
			InterArrival: float64(4 + rng.Intn(60)), Output: rng.Intn(8)})
		f := pool.Get()
		f.Conn, f.Class = flit.ConnID(i), flit.ClassCBR
		mem.Push(vc, f)
	}
	dst := make([]sched.Candidate, 0, 8)
	now := int64(0)
	out["sched.link_candidates_ns"] = perOp(reps, 20_000, func() {
		now++
		dst = ls.Candidates(now, dst[:0])
	})
	probeSink += len(dst)
}

func probeBuffers(rng *sim.RNG, reps int, out map[string]float64) {
	cfg := vcm.PaperConfig()
	mem := vcm.MustNew(cfg)
	pool := flit.NewPool()
	f := pool.Get()
	vc := rng.Intn(cfg.VirtualChannels)
	mem.Reserve(vc, vcm.VCState{Class: flit.ClassCBR, Allocated: 1})
	out["vcm.push_pop_ns"] = perOp(reps, 200_000, func() {
		mem.Push(vc, f)
		mem.Pop(vc)
	})

	// FindFree on a port with three quarters of its VCs reserved.
	for i := 0; i < cfg.VirtualChannels*3/4; i++ {
		if v := mem.FindFree(rng.Intn(cfg.VirtualChannels)); v >= 0 {
			mem.Reserve(v, vcm.VCState{Class: flit.ClassCBR, Allocated: 1})
		}
	}
	from := 0
	out["vcm.find_free_ns"] = perOp(reps, 200_000, func() {
		from = (from + 37) % cfg.VirtualChannels
		probeSink += mem.FindFree(from)
	})

	// NextSet over a 256-bit vector with 24 bits set, as the link scheduler
	// walks its eligible set.
	vec := bitvec.New(cfg.VirtualChannels)
	for i := 0; i < 24; i++ {
		vec.Set(rng.Intn(cfg.VirtualChannels))
	}
	out["bitvec.nextset_ns"] = perOp(reps, 50_000, func() {
		for i := vec.NextSet(0); i >= 0; i = vec.NextSet(i + 1) {
			probeSink += i
		}
	}) / float64(vec.Count())

	credits := flow.NewCredits(cfg.VirtualChannels, cfg.Depth)
	pipe := flow.NewCreditPipe(1)
	now := int64(0)
	out["flow.credit_roundtrip_ns"] = perOp(reps, 200_000, func() {
		credits.Consume(vc)
		pipe.Send(now, vc)
		now++
		pipe.DeliverTo(now, credits)
	})

	out["flit.pool_getput_ns"] = perOp(reps, 200_000, func() { pool.Put(pool.Get()) })
}

func probeRouting(rng *sim.RNG, reps int, out map[string]float64) error {
	const k = 8
	tp, err := topology.FatTree(k)
	if err != nil {
		return err
	}
	dists := routing.NewDists(tp)
	scratch := routing.NewSearchScratch(tp.Nodes)
	edges := edgeRouters(k, k)
	permissive := func(node, port int) bool { return true }
	release := func(node, port int) {}
	var samples []float64
	for i := 0; i < 2000*reps; i++ {
		src := edges[rng.Intn(len(edges))]
		dst := otherOf(rng, edges, src)
		t0 := time.Now()
		if _, err := routing.SearchInto(tp, dists, src, dst, permissive, release, scratch); err != nil {
			return err
		}
		samples = append(samples, float64(time.Since(t0))/1e3)
	}
	out["routing.search_us_p50"] = quantile(samples, 0.5)

	out["routing.dists_recompute_ms"] = perOp(reps, 3, func() { dists.Recompute(tp) }) / 1e6

	mp := routing.NewMultipath(tp, dists, routing.NewUpDown(tp, dists))
	load := func(node, port int) float64 { return float64((node*7+port*3)%10) / 10 }
	out["routing.multipath_choose_us"] = perOp(reps, 5_000, func() {
		src := edges[rng.Intn(len(edges))]
		probeSink += len(mp.Choose(routing.RouteUGAL, src, otherOf(rng, edges, src), rng, load))
	}) / 1e3
	return nil
}

func probeAdmission(reps int, out map[string]float64) error {
	// The paper router's round: K=2 × 256 VCs, concurrency 2.
	alloc, err := admission.NewLinkAllocator(512, 0, 2)
	if err != nil {
		return err
	}
	out["admission.admit_release_ns"] = perOp(reps, 200_000, func() {
		if alloc.AdmitCBR(3) {
			alloc.ReleaseCBR(3)
		}
		if alloc.AdmitVBR(2, 6) {
			alloc.ReleaseVBR(2, 6)
		}
	}) / 2

	tenants := admission.NewTenantTable()
	tenants.SetQuota("a", admission.TenantQuota{MaxSessions: 1 << 20, MaxGuaranteed: 1 << 30})
	out["admission.tenant_admit_ns"] = perOp(reps, 200_000, func() {
		if tenants.AdmitSession("a", 3) {
			tenants.ReleaseAll("a", 3)
		}
	})
	return nil
}

// probeEvents measures one At+Step pair with 1,000 events pending.
func probeEvents(rng *sim.RNG, reps int, out map[string]float64) {
	eng := sim.NewEngine()
	noop := sim.EventFunc(func(sim.Time) {})
	for i := 0; i < 1000; i++ {
		eng.At(sim.Time(1+rng.Intn(1_000_000)), noop)
	}
	out["sim.event_ns"] = perOp(reps, 100_000, func() {
		eng.At(eng.Now()+sim.Time(1+rng.Intn(1000)), noop)
		eng.Step()
	})
}

// probeEnvelope seals and opens a blob the size of the churn fabric's state.
func probeEnvelope(rng *sim.RNG, reps int, out map[string]float64) error {
	payload := make([]byte, 2<<20)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	var sealed []byte
	mb := float64(len(payload)) / 1e6
	out["checkpoint.seal_MB_per_s"] = mb / (perOp(reps, 5, func() { sealed = checkpoint.Seal(42, payload) }) / 1e9)
	var err error
	out["checkpoint.open_MB_per_s"] = mb / (perOp(reps, 5, func() {
		if _, _, _, e := checkpoint.Open(sealed); e != nil {
			err = e
		}
	}) / 1e9)
	return err
}

// runProbes runs every micro-probe.
func runProbes(seed uint64, sz *sizes, out map[string]float64) error {
	rng := sim.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	probeArbiters(rng, sz.probeReps, out)
	probeLinkScheduler(rng, sz.probeReps, out)
	probeBuffers(rng, sz.probeReps, out)
	if err := probeRouting(rng, sz.probeReps, out); err != nil {
		return err
	}
	if err := probeAdmission(sz.probeReps, out); err != nil {
		return err
	}
	probeEvents(rng, sz.probeReps, out)
	return probeEnvelope(rng, sz.probeReps, out)
}
