package traffic

import (
	"fmt"

	"mmr/internal/flit"
	"mmr/internal/sim"
)

// ConnSpec describes one connection of a workload before admission: its
// class, rate(s), endpoint ports and scheduling priority.
type ConnSpec struct {
	Class    flit.Class
	Rate     Rate // CBR rate, or VBR average (permanent) rate
	PeakRate Rate // VBR peak rate; 0 for CBR
	In, Out  int  // router ports (single-router model)
	Priority int  // VBR static priority; higher is more urgent
}

// Workload is a set of connections plus the load accounting used to build
// it.
type Workload struct {
	Conns       []ConnSpec
	OfferedLoad float64 // achieved Σrate / (ports × link bandwidth)
	InLoad      []float64
	OutLoad     []float64
}

// WorkloadConfig controls random workload generation, reproducing the
// experimental setup of §5: connections drawn from a rate population and
// assigned to random input and output ports, admitted only while both
// ports have bandwidth left.
type WorkloadConfig struct {
	Ports      int     // router radix (8 in the paper)
	Link       Link    // link/flit geometry
	Rates      []Rate  // rate population (PaperRates in the paper)
	TargetLoad float64 // fraction of total switch bandwidth to demand
	// MaxPortLoad caps per-port utilization (1.0 = full link). The paper's
	// admission control refuses connections beyond link capacity.
	MaxPortLoad float64
	// VBRFraction, if positive, makes that fraction of connections VBR with
	// PeakFactor × rate peaks (used by the hybrid-traffic ablations).
	VBRFraction float64
	PeakFactor  float64
	// MaxPriority bounds the random VBR priority (exclusive); 0 means 1.
	MaxPriority int
}

// PaperWorkloadConfig returns the §5 configuration for an 8×8 router at
// the given offered load.
func PaperWorkloadConfig(load float64) WorkloadConfig {
	return WorkloadConfig{
		Ports:       8,
		Link:        PaperLink,
		Rates:       PaperRates,
		TargetLoad:  load,
		MaxPortLoad: 1.0,
	}
}

// Generate builds a random workload per cfg. It draws connections until
// the offered load reaches the target or no more connections fit; the
// achieved load lands within one smallest-rate step of the target, which
// for the paper's population is well under 0.01% of switch bandwidth.
func Generate(cfg WorkloadConfig, rng *sim.RNG) (*Workload, error) {
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("traffic: invalid port count %d", cfg.Ports)
	}
	if len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("traffic: empty rate population")
	}
	if cfg.TargetLoad < 0 || cfg.TargetLoad > 1 {
		return nil, fmt.Errorf("traffic: target load %v out of [0,1]", cfg.TargetLoad)
	}
	maxPort := cfg.MaxPortLoad
	if maxPort <= 0 {
		maxPort = 1.0
	}
	w := &Workload{
		InLoad:  make([]float64, cfg.Ports),
		OutLoad: make([]float64, cfg.Ports),
	}
	linkBW := float64(cfg.Link.Bandwidth)
	totalBW := linkBW * float64(cfg.Ports)
	demand := 0.0
	// A draw can fail because the chosen ports are full even though others
	// have room; retry with fresh ports a bounded number of times before
	// concluding the workload is complete.
	const maxRetries = 200
	fails := 0
	for demand/totalBW < cfg.TargetLoad && fails < maxRetries {
		rate := cfg.Rates[rng.Intn(len(cfg.Rates))]
		frac := float64(rate) / linkBW
		// Don't overshoot the target: skip rates that would blow past it by
		// more than the smallest population rate.
		if (demand+float64(rate))/totalBW > cfg.TargetLoad+smallestFrac(cfg.Rates, totalBW) {
			fails++
			continue
		}
		in, out := rng.Intn(cfg.Ports), rng.Intn(cfg.Ports)
		if w.InLoad[in]+frac > maxPort || w.OutLoad[out]+frac > maxPort {
			fails++
			continue
		}
		fails = 0
		spec := ConnSpec{Class: flit.ClassCBR, Rate: rate, In: in, Out: out}
		if cfg.VBRFraction > 0 && rng.Float64() < cfg.VBRFraction {
			spec.Class = flit.ClassVBR
			pf := cfg.PeakFactor
			if pf < 1 {
				pf = 2
			}
			spec.PeakRate = Rate(float64(rate) * pf)
			if cfg.MaxPriority > 1 {
				spec.Priority = rng.Intn(cfg.MaxPriority)
			}
		}
		w.Conns = append(w.Conns, spec)
		w.InLoad[in] += frac
		w.OutLoad[out] += frac
		demand += float64(rate)
	}
	w.OfferedLoad = demand / totalBW
	return w, nil
}

func smallestFrac(rates []Rate, totalBW float64) float64 {
	min := rates[0]
	for _, r := range rates[1:] {
		if r < min {
			min = r
		}
	}
	return float64(min) / totalBW
}
