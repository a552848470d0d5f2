package router

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mmr/internal/flit"
	"mmr/internal/sim"
	"mmr/internal/traffic"
)

// packetFlowRun drives one PaperConfig router through the packet-flow
// scenario: streams at the given load, a control and a best-effort flow on
// every port, then — after warm-up — a bandwidth word, two best-effort
// flows that saturate output 2 so the backlogged interfaces retry FindFree
// every cycle, and one more flow of each kind.
func packetFlowRun(t *testing.T, load float64, seed uint64, noIdleSkip bool) *Router {
	t.Helper()
	cfg := PaperConfig()
	cfg.Seed = seed
	cfg.NoIdleSkip = noIdleSkip
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if load > 0 {
		if _, err := r.EstablishWorkload(mustWorkload(t, cfg, load, seed)); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < cfg.Ports; p++ {
		if err := r.AddControlFlow(p, (p+1)%cfg.Ports, 0.002); err != nil {
			t.Fatal(err)
		}
		if err := r.AddBestEffortFlow(p, (p+3)%cfg.Ports, 0.004); err != nil {
			t.Fatal(err)
		}
	}
	r.Run(3_000, 0)
	for _, c := range r.Connections() {
		if c.Spec.Class == flit.ClassCBR {
			if err := r.SetBandwidth(c, c.Spec.Rate/2); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	for _, in := range []int{0, 1} {
		if err := r.AddBestEffortFlow(in, 2, 0.9); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.AddControlFlow(5, 6, 0.01); err != nil {
		t.Fatal(err)
	}
	if err := r.AddBestEffortFlow(6, 7, 0.01); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRouterGatingEquivalencePacketFlows: with control and best-effort
// packet flows — cut-throughs on an idle router, interfaces backlogged
// behind a full input port, flows added mid-run, a bandwidth word in
// flight — the gated router is bit-identical to the NoIdleSkip reference:
// the same Metrics, the same RNG position and the same clock.
func TestRouterGatingEquivalencePacketFlows(t *testing.T) {
	for _, load := range []float64{0, 0.05, 0.5, 0.8} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("load%.2f/seed%d", load, seed), func(t *testing.T) {
				ref := packetFlowRun(t, load, seed, true)
				got := packetFlowRun(t, load, seed, false)
				refM, gotM := ref.Run(1_000, 4_000), got.Run(1_000, 4_000)
				if refM.PerClassDelivered[flit.ClassControl] == 0 || refM.PerClassDelivered[flit.ClassBestEffort] == 0 {
					t.Fatalf("degenerate scenario: %v", refM.PerClassDelivered)
				}
				if refM.ControlFastPath == 0 {
					t.Fatal("degenerate scenario: no control packet cut through")
				}
				if ref.Memory(0).FreeVCs() != 0 && ref.Memory(1).FreeVCs() != 0 {
					t.Fatal("degenerate scenario: no saturated input ran out of VCs, so no interface was backlogged")
				}
				if !reflect.DeepEqual(refM, gotM) {
					t.Errorf("gated Metrics diverged from NoIdleSkip:\nungated: %+v\ngated:   %+v", refM, gotM)
				}
				if a, b := ref.rng.State(), got.rng.State(); a != b {
					t.Errorf("RNG position diverged: ungated %+v, gated %+v", a, b)
				}
				if ref.now != got.now {
					t.Errorf("clock diverged: ungated %d, gated %d", ref.now, got.now)
				}
			})
		}
	}
}

// FuzzRouterGatingEquivalence applies one operation stream to a gated
// router and a NoIdleSkip one — establishes, packet flows, bandwidth and
// priority words, frame aborts, releases and Run bursts — and requires the
// two to answer every operation alike and report equal Metrics after every
// burst.
func FuzzRouterGatingEquivalence(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 1, 2, 9, 3, 9, 4, 9, 5, 9, 6, 7, 9, 9})
	f.Add(uint64(5), []byte{2, 2, 0, 1, 1, 8, 4, 9, 4, 9, 6, 9, 7, 8, 9, 5, 9})
	f.Add(uint64(9), []byte{3, 3, 3, 9, 9, 0, 9, 7, 9, 1, 9})
	// Thirty VBR establishes, then Run bursts: under seed 31, 8,090 of the
	// 10,556 burst cycles end with every queued session behind a full
	// entry VC — the state in which the pop that frees a slot must refill
	// it (Core.Feed in transmit), which the seeds above never reach.
	f.Add(uint64(31), append(bytes.Repeat([]byte{1}, 30), bytes.Repeat([]byte{9}, 8)...))
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		build := func(noIdleSkip bool) *Router {
			cfg := smallConfig()
			cfg.Seed = seed
			cfg.NoIdleSkip = noIdleSkip
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		routers := [2]*Router{build(true), build(false)}
		var live [2][]*Connection
		rng := sim.NewRNG(seed ^ 0x5eed)
		for i, op := range ops {
			arg := rng.Uint64()
			pick := func(k int) int { return int(arg>>8) % k }
			var errs [2]error
			var ms [2]*Metrics
			for s, r := range routers {
				ports := r.cfg.Ports
				in, out := int(arg%uint64(ports)), int((arg>>4)%uint64(ports))
				switch op % 10 {
				case 0, 1: // establish CBR or VBR
					rate := traffic.PaperRates[pick(len(traffic.PaperRates))]
					spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: rate, In: in, Out: out}
					if op%10 == 1 {
						spec.Class, spec.PeakRate = flit.ClassVBR, 2*rate
					}
					var c *Connection
					if c, errs[s] = r.Establish(spec); errs[s] == nil {
						live[s] = append(live[s], c)
					}
				case 2:
					errs[s] = r.AddControlFlow(in, out, 0.002*float64(1+pick(8)))
				case 3:
					errs[s] = r.AddBestEffortFlow(in, out, 0.003*float64(1+pick(300)))
				case 4, 5, 6, 7: // SetBandwidth / SetPriority, AbortFrame, Release
					if len(live[s]) == 0 {
						continue
					}
					j := pick(len(live[s]))
					c := live[s][j]
					switch {
					case op%10 == 4 && c.Spec.Class == flit.ClassCBR:
						errs[s] = r.SetBandwidth(c, traffic.PaperRates[pick(len(traffic.PaperRates))])
					case op%10 == 4:
						errs[s] = r.SetPriority(c, pick(8))
					case op%10 == 5:
						r.AbortFrame(c)
					default:
						if errs[s] = r.Release(c); errs[s] == nil {
							live[s] = append(live[s][:j], live[s][j+1:]...)
						}
					}
				default: // a Run burst
					ms[s] = r.Run(0, int64(1+pick(2_000)))
				}
			}
			if (errs[0] == nil) != (errs[1] == nil) {
				t.Fatalf("op %d (%d): ungated err %v, gated err %v", i, op, errs[0], errs[1])
			}
			if !reflect.DeepEqual(ms[0], ms[1]) {
				t.Fatalf("op %d: gated Metrics diverged from NoIdleSkip:\nungated: %+v\ngated:   %+v", i, ms[0], ms[1])
			}
			if routers[0].now != routers[1].now || routers[0].rng.State() != routers[1].rng.State() {
				t.Fatalf("op %d: clock or RNG diverged", i)
			}
		}
	})
}

// TestBlockedSessionsAreNotHeld pins what the source calendar holds: a
// connection whose interface queues flits behind a full VC is not looked at
// every cycle — the pop that frees a slot in its VC refills it — so on every
// cycle that ends with each queued connection's VC full, the calendar holds
// nothing. It runs the paper's 1C biased cell at 0.9 load, whose switch
// saturates and backlogs its interfaces (EXPERIMENTS.md, "Queue
// boundedness"), and requires the gated router to end equal to a NoIdleSkip
// twin: Metrics, the Prometheus rendering, RNG position and clock.
func TestBlockedSessionsAreNotHeld(t *testing.T) {
	const cycles = 20_000
	build := func(noIdleSkip bool) *Router {
		cfg := PaperConfig()
		cfg.MaxCandidates, cfg.NoIdleSkip = 1, noIdleSkip
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The workload exp.RunPoint generates for this cell under seed 1.
		if _, err := r.EstablishWorkload(mustWorkload(t, cfg, 0.9, 1_000_003+900)); err != nil {
			t.Fatal(err)
		}
		r.EnableMetrics()
		return r
	}
	r, ref := build(false), build(true)
	blocked := 0
	for c := 0; c < cycles; c++ {
		r.runCycles(1)
		ref.runCycles(1)
		queued, full := 0, true
		for _, conn := range r.conns {
			if conn.ni.Queue.Len() > 0 {
				queued++
				full = full && r.core.Mems[conn.Spec.In].Free(conn.VC) == 0
			}
		}
		if queued == 0 || !full {
			continue
		}
		blocked++
		if r.cal.Holding() {
			t.Fatalf("cycle %d: %d connections queue flits behind full VCs and the calendar holds one", r.now-1, queued)
		}
	}
	if blocked == 0 {
		t.Fatal("degenerate run: no cycle ended with a connection backlogged behind its full VC")
	}
	if a, b := ref.Run(0, 0), r.Run(0, 0); !reflect.DeepEqual(a, b) {
		t.Errorf("gated Metrics diverged from NoIdleSkip:\nungated: %+v\ngated:   %+v", a, b)
	}
	var a, b strings.Builder
	if err := ref.GatherMetrics().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.GatherMetrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("gated metric rendering diverged from NoIdleSkip")
	}
	if ref.rng.State() != r.rng.State() || ref.now != r.now {
		t.Error("gated RNG position or clock diverged from NoIdleSkip")
	}
}
