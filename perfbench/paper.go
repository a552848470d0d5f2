package main

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"mmr/internal/exp"
	"mmr/internal/router"
	"mmr/internal/sim"
	"mmr/internal/traffic"
)

// paper_sweep: the paper's single 8×8 router (router.PaperConfig) under the
// seven scheduler variants of Figures 3-5 at three loads. The set-up calls are
// the ones exp.RunPoint makes, split so that establishment and warm-up fall
// into set-up and only the measurement window is timed; the fixed window
// checks the split against exp.RunPoint bit for bit.

var paperLoads = []float64{0.3, 0.6, 0.9}

func paperVariants() []exp.Variant {
	return []exp.Variant{
		exp.SchemeVariant("biased", 1), exp.SchemeVariant("biased", 2),
		exp.SchemeVariant("biased", 4), exp.SchemeVariant("biased", 8),
		exp.SchemeVariant("fixed", 8), exp.SchemeVariant("autonet", 8),
		exp.SchemeVariant("perfect", 8),
	}
}

// Indices into paperVariants.
const (
	v1C = iota
	v2C
	v4C
	v8C
	vFixed
	vAutonet
	vPerfect
)

// paperGroups are the classes of cell the ledger reports a step cost for.
var paperGroups = []string{"priority", "autonet", "perfect", "backlogged"}

// paperGroup classes a cell: the 1C and 2C cells at 0.9 cannot drain their
// queues and run the engine saturated; the rest are classed by arbiter.
func paperGroup(variant int, load float64) string {
	switch {
	case (variant == v1C || variant == v2C) && load == 0.9:
		return "backlogged"
	case variant == vAutonet:
		return "autonet"
	case variant == vPerfect:
		return "perfect"
	}
	return "priority"
}

type paperCell struct {
	variant int
	load    float64
	run     string // span name of this cell's Run calls
	r       *router.Router
}

type paperInst struct {
	seed  uint64
	sz    *sizes
	cells []paperCell
}

// paperTrafficSeed is the seed exp.RunPoint gives traffic.Generate.
func paperTrafficSeed(seed uint64, load float64) uint64 {
	return seed*1_000_003 + uint64(load*1000)
}

func setupPaper(seed uint64, sz *sizes, v variant, tr *tracer) (instance, setupOut, error) {
	inst := &paperInst{seed: seed, sz: sz}
	var out setupOut
	for vi, pv := range paperVariants() {
		for _, load := range paperLoads {
			cfg := router.PaperConfig()
			pv.Mutate(&cfg)
			cfg.Seed = seed
			cfg.NoIdleSkip = v.noIdleSkip

			t0 := time.Now()
			sp := tr.begin("router.New")
			r, err := router.New(cfg)
			tr.end(sp)
			if err != nil {
				return nil, out, err
			}
			sp = tr.begin("traffic.Generate")
			wl, err := traffic.Generate(traffic.WorkloadConfig{
				Ports: cfg.Ports, Link: cfg.Link, Rates: traffic.PaperRates,
				TargetLoad: load, MaxPortLoad: 1,
			}, sim.NewRNG(paperTrafficSeed(seed, load)))
			tr.end(sp)
			if err != nil {
				return nil, out, err
			}
			t1 := time.Now()
			sp = tr.begin("router.EstablishWorkload")
			n, err := r.EstablishWorkload(wl)
			tr.end(sp)
			if err != nil {
				return nil, out, fmt.Errorf("%s at load %.1f: %w", pv.Name, load, err)
			}
			t2 := time.Now()
			sp = tr.begin("router.Run.warm")
			r.Run(sz.paperWarm, 0)
			tr.end(sp)
			t3 := time.Now()

			out.buildSec += t1.Sub(t0).Seconds()
			out.establishSec += t2.Sub(t1).Seconds()
			out.warmSec += t3.Sub(t2).Seconds()
			out.requests += len(wl.Conns)
			out.accepted += n
			out.warmCycles += sz.paperWarm
			inst.cells = append(inst.cells, paperCell{variant: vi, load: load, run: "router.Run." + paperGroup(vi, load), r: r})
		}
	}
	return inst, out, nil
}

// window measures paperWindow cycles on every cell and checks the figures'
// orderings, then checks one cell against exp.RunPoint.
func (p *paperInst) window(tr *tracer, res *result, workers int) windowOut {
	ms := make([]*router.Metrics, len(p.cells))
	t0, c0 := time.Now(), threadCPU()
	if workers <= 1 {
		for i := range p.cells {
			sp := tr.begin(p.cells[i].run)
			ms[i] = p.cells[i].r.Run(0, p.sz.paperWindow)
			tr.end(sp)
		}
	} else {
		// Cells are independent simulations, so the two-worker form is
		// exp.RunGrid's: cells dealt to goroutines.
		sp := tr.begin("router.Run.x2")
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(p.cells); i += workers {
					ms[i] = p.cells[i].r.Run(0, p.sz.paperWindow)
				}
			}(w)
		}
		wg.Wait()
		tr.end(sp)
	}
	out := windowOut{wallSec: time.Since(t0).Seconds(), cpuSec: (threadCPU() - c0).Seconds(), sim: map[string]float64{}}

	fp := newFingerprinter()
	var delivered int64
	for i, m := range ms {
		out.cycles += m.Cycles
		delivered += m.FlitsDelivered
		fp.bytes([]byte(fmt.Sprintf("%d/%.1f %+v\n", p.cells[i].variant, p.cells[i].load, *m)))
	}
	out.fingerprint = fp.sum()

	at := func(variant int, load float64) *router.Metrics {
		for i := range p.cells {
			if p.cells[i].variant == variant && p.cells[i].load == load {
				return ms[i]
			}
		}
		return nil
	}
	for _, load := range paperLoads {
		perfect, biased, autonet := at(vPerfect, load).Jitter.Mean(), at(v8C, load).Jitter.Mean(), at(vAutonet, load).Jitter.Mean()
		res.check(perfect <= biased && biased <= autonet,
			"paper_sweep load %.1f: jitter perfect %.4f <= 8C biased %.4f <= Autonet %.4f does not hold", load, perfect, biased, autonet)
	}
	res.check(at(v8C, 0.9).Jitter.Mean() < at(vFixed, 0.9).Jitter.Mean(),
		"paper_sweep load 0.9: jitter 8C biased %.4f is not below 8C fixed %.4f", at(v8C, 0.9).Jitter.Mean(), at(vFixed, 0.9).Jitter.Mean())
	res.check(at(v8C, 0.9).SwitchUtilization >= at(v1C, 0.9).SwitchUtilization,
		"paper_sweep load 0.9: utilization 8C %.4f is below 1C %.4f", at(v8C, 0.9).SwitchUtilization, at(v1C, 0.9).SwitchUtilization)

	// The split set-up/timed calls must measure the program the figures use.
	sp := tr.begin("exp.RunPoint")
	pt, err := exp.RunPoint(router.PaperConfig(), 0.3, paperVariants()[v8C],
		exp.Options{Warmup: p.sz.paperWarm, Measure: p.sz.paperWindow, Seed: p.seed, NoIdleSkip: p.cells[0].r.Config().NoIdleSkip})
	tr.end(sp)
	res.check(err == nil && reflect.DeepEqual(pt.M, at(v8C, 0.3)),
		"paper_sweep: the 8C biased 0.3 cell differs from exp.RunPoint at seed %d (err %v)", p.seed, err)

	hot := at(v8C, 0.9)
	out.sim["stream_jitter_cycles"] = hot.Jitter.Mean()
	out.sim["stream_delay_cycles"] = hot.Delay.Mean()
	out.sim["flits_delivered"] = float64(delivered)
	return out
}

// timed runs passes of paperSeg cycles on each cell in turn. Each cell's Run
// call is a unit; the timed call whose latency is reported is a whole pass,
// because the cells' own calls differ tenfold by design (a backlogged cell
// against a lightly loaded one) and a percentile over them would pick out a
// cell, not a tail.
func (p *paperInst) timed(tr *tracer, res *result, passes int, acc *timedAcc) {
	acc.unitsPerCall = len(p.cells)
	for ; passes > 0; passes-- {
		now := threadCPU()
		for i := range p.cells {
			sp := tr.begin(p.cells[i].run)
			m := p.cells[i].r.Run(0, p.sz.paperSeg)
			tr.end(sp)
			next := threadCPU()
			acc.unit(next - now)
			acc.runNs = append(acc.runNs, float64(next-now)/float64(m.Cycles))
			now = next
			acc.cycles += m.Cycles
			acc.flits += m.FlitsDelivered
			res.Attempted++
		}
	}
	acc.linkFlits = acc.flits
}

// audit has nothing to check: the single router keeps no invariant checker,
// and the window already verified its outputs.
func (p *paperInst) audit(*result) {}

func (p *paperInst) gatingExact() bool { return true }

func (p *paperInst) close() {}
