package router

import (
	"testing"
	"testing/quick"

	"mmr/internal/flit"
	"mmr/internal/sim"
	"mmr/internal/traffic"
)

// TestRouterFuzzInvariants drives a small router with random interleaved
// operations — establish, step bursts, best-effort flows, bandwidth
// changes, frame aborts — and checks global invariants after every
// operation: flit conservation, bounded buffer occupancy, credit sanity
// and consistent VC bookkeeping. Any panic (flow-control violation,
// double release) fails the property. A matching that connects one output
// to two inputs panics nowhere: TestQueueConservation checks every cycle's
// grants for it (checkSubPermutation).
func TestRouterFuzzInvariants(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		cfg := smallConfig()
		cfg.Seed = seed
		r, err := New(cfg)
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed ^ 0xabcdef)
		var conns []*Connection
		dropped := int64(0)
		for _, op := range ops {
			switch op % 8 {
			case 0, 1: // establish a CBR connection
				spec := traffic.ConnSpec{
					Class: flit.ClassCBR,
					Rate:  traffic.PaperRates[rng.Intn(len(traffic.PaperRates))],
					In:    rng.Intn(cfg.Ports),
					Out:   rng.Intn(cfg.Ports),
				}
				if c, err := r.Establish(spec); err == nil {
					conns = append(conns, c)
				}
			case 2: // establish a VBR connection
				rate := traffic.PaperRates[rng.Intn(len(traffic.PaperRates))]
				spec := traffic.ConnSpec{
					Class: flit.ClassVBR, Rate: rate,
					PeakRate: traffic.Rate(2 * float64(rate)),
					In:       rng.Intn(cfg.Ports),
					Out:      rng.Intn(cfg.Ports),
					Priority: rng.Intn(4),
				}
				if c, err := r.Establish(spec); err == nil {
					conns = append(conns, c)
				}
			case 3: // attach a best-effort flow
				r.AddBestEffortFlow(rng.Intn(cfg.Ports), rng.Intn(cfg.Ports), 0.005)
			case 4: // dynamic bandwidth change
				if len(conns) > 0 {
					c := conns[rng.Intn(len(conns))]
					if c.Spec.Class == flit.ClassCBR {
						r.SetBandwidth(c, traffic.PaperRates[rng.Intn(len(traffic.PaperRates))])
					} else {
						r.SetPriority(c, rng.Intn(8))
					}
				}
			case 5: // abort a frame
				if len(conns) > 0 {
					dropped += int64(r.AbortFrame(conns[rng.Intn(len(conns))]))
				}
			default: // run a burst of cycles
				for i := 0; i < int(op%256); i++ {
					r.Step()
				}
			}
			// Invariants after every operation: every flit or packet ever
			// created is delivered, buffered, queued at an interface, or
			// was explicitly dropped by AbortFrame.
			var buffered, queued int64
			for p := 0; p < cfg.Ports; p++ {
				mem := r.Memory(p)
				occ := mem.Occupied()
				if occ < 0 || occ > cfg.VCM.VirtualChannels*cfg.VCM.Depth {
					return false
				}
				buffered += int64(occ)
			}
			for _, c := range r.Connections() {
				queued += int64(c.ni.Queue.Len())
			}
			for _, pf := range r.flows {
				queued += int64(pf.ni.Queue.Len())
			}
			gen := r.m.generated
			for _, n := range r.m.pktGenerated {
				gen += n
			}
			var del int64
			for _, n := range r.m.sink.Delivered {
				del += n
			}
			if gen != del+buffered+queued+dropped {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRouterDeterminism: identical seeds must give identical results —
// the reproducibility guarantee every experiment relies on.
func TestRouterDeterminism(t *testing.T) {
	run := func() *Metrics {
		cfg := smallConfig()
		cfg.Seed = 99
		r, _ := New(cfg)
		wl, _ := traffic.Generate(traffic.WorkloadConfig{
			Ports: cfg.Ports, Link: cfg.Link, Rates: traffic.PaperRates,
			TargetLoad: 0.7, MaxPortLoad: 1,
		}, sim.NewRNG(7))
		r.EstablishWorkload(wl)
		r.AddBestEffortFlow(0, 2, 0.01)
		return r.Run(2_000, 10_000)
	}
	a, b := run(), run()
	if a.FlitsDelivered != b.FlitsDelivered ||
		a.Delay.Mean() != b.Delay.Mean() ||
		a.Jitter.Mean() != b.Jitter.Mean() ||
		a.PerClassDelivered != b.PerClassDelivered {
		t.Fatalf("same seed, different results:\n%v\n%v", a, b)
	}
}

// TestRouterSeedSensitivity: different seeds must actually change the
// stochastic parts (guards against a pinned RNG).
func TestRouterSeedSensitivity(t *testing.T) {
	run := func(seed uint64) float64 {
		cfg := smallConfig()
		cfg.Seed = seed
		r, _ := New(cfg)
		wl, _ := traffic.Generate(traffic.WorkloadConfig{
			Ports: cfg.Ports, Link: cfg.Link, Rates: traffic.PaperRates,
			TargetLoad: 0.8, MaxPortLoad: 1,
		}, sim.NewRNG(seed))
		r.EstablishWorkload(wl)
		return r.Run(2_000, 10_000).Delay.Mean()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical delay — RNG not wired through")
	}
}
