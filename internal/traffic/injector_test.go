package traffic

import (
	"reflect"
	"testing"

	"mmr/internal/flit"
	"mmr/internal/sim"
)

// patternSource is a trace-like source that cannot forecast: it replays a
// fixed arrival pattern, stride entries per cycle.
type patternSource struct {
	pattern []int
	pos     int
	stride  int
}

func (s *patternSource) Tick(int64) int {
	k := s.pattern[s.pos%len(s.pattern)]
	s.pos += s.stride
	return k
}

// injectorCase builds one source over rng, and says how to change its rate
// in mid-run and how to read its evolving state.
type injectorCase struct {
	name   string
	build  func(rng *sim.RNG) Source
	retune func(Source)
	state  func(Source) any
}

func injectorCases() []injectorCase {
	return []injectorCase{
		{"cbr",
			func(*sim.RNG) Source { return NewCBRSource(PaperLink, 5*Mbps, 0.37) },
			func(s Source) {
				st := s.(*CBRSource).ExportState()
				st.PerCycle *= 7
				s.(*CBRSource).RestoreState(st)
			},
			func(s Source) any { return s.(*CBRSource).ExportState() }},
		{"vbr",
			func(rng *sim.RNG) Source { return NewVBRSource(rng, PaperLink, 20*Mbps, 60*Mbps, DefaultGoP()) },
			func(s Source) {
				st := s.(*VBRSource).ExportState()
				st.PerCycle /= 2
				s.(*VBRSource).RestoreState(st)
			},
			func(s Source) any { return s.(*VBRSource).ExportState() }},
		{"poisson",
			func(rng *sim.RNG) Source { return NewBestEffortSource(rng, 0.01) },
			func(s Source) {
				st := s.(*BestEffortSource).ExportState()
				st.Rate *= 3
				s.(*BestEffortSource).RestoreState(st)
			},
			func(s Source) any { return s.(*BestEffortSource).ExportState() }},
		{"trace",
			func(*sim.RNG) Source { return &patternSource{pattern: []int{0, 0, 1, 0, 3, 0, 0, 0, 0, 1}, stride: 1} },
			func(s Source) { s.(*patternSource).stride = 3 },
			func(s Source) any { return *s.(*patternSource) }},
	}
}

// TestInjectorGatedMatchesPerCycle drives two injectors over twin sources
// the way the engines do — one looked at every cycle (NoIdleSkip), one
// only when its forecast has come due or flits wait at its interface,
// where a flit leaves every third cycle so that backlog builds — through
// a rate change in mid-run and a stop. Every cycle they must report the
// same arrivals and have drawn the same randomness; whenever the gated
// one has caught up, and at the end, their sources and their LastTick
// must be equal.
func TestInjectorGatedMatchesPerCycle(t *testing.T) {
	const retuneAt, stopAt = 3000, 7000
	for _, tc := range injectorCases() {
		t.Run(tc.name, func(t *testing.T) {
			var inj [2]Injector // 0 per-cycle, 1 gated
			var rngs [2]*sim.RNG
			for i := range inj {
				rngs[i] = sim.NewRNG(11)
				inj[i].Source = tc.build(rngs[i])
				inj[i].Start(0)
			}
			visits := 0
			same := func(when string, cycle int64) {
				t.Helper()
				if a, b := tc.state(inj[0].Source), tc.state(inj[1].Source); !reflect.DeepEqual(a, b) {
					t.Fatalf("%s cycle %d: source state per-cycle %+v, gated %+v", when, cycle, a, b)
				}
				if inj[0].LastTick != inj[1].LastTick {
					t.Fatalf("%s cycle %d: LastTick per-cycle %d, gated %d", when, cycle, inj[0].LastTick, inj[1].LastTick)
				}
			}
			for c := int64(0); c < stopAt; c++ {
				if c == retuneAt {
					// As a bandwidth word or ModifyBandwidth does it: the
					// slept cycles ran at the old rate.
					for i := range inj {
						inj[i].CatchUp(c - 1)
					}
					same("before the rate change at", c)
					for i := range inj {
						tc.retune(inj[i].Source)
						inj[i].Start(c)
					}
				}
				var got [2]int
				for i := range inj {
					in := &inj[i]
					if i == 1 && in.NextDue > c && in.Queue.Len() == 0 {
						continue // gated out
					}
					if i == 1 {
						visits++
					}
					if i == 0 || in.NextDue <= c {
						got[i] = in.Arrivals(c)
					}
					for k := got[i]; k > 0; k-- {
						in.Queue.Push(&flit.Flit{})
					}
					if c%3 == 0 && in.Queue.Len() > 0 {
						in.Queue.Pop()
					}
				}
				if got[0] != got[1] {
					t.Fatalf("cycle %d: %d arrivals per-cycle, %d gated", c, got[0], got[1])
				}
				if rngs[0].State() != rngs[1].State() {
					t.Fatalf("cycle %d: the gated source has drawn differently from the per-cycle one", c)
				}
				if inj[0].NextDue <= c || inj[1].NextDue <= c {
					t.Fatalf("cycle %d: forecast not renewed after the tick (per-cycle %d, gated %d)", c, inj[0].NextDue, inj[1].NextDue)
				}
			}
			// A stop replays what the source slept through.
			for i := range inj {
				inj[i].CatchUp(stopAt - 1)
			}
			same("stopped at", stopAt)
			if inj[1].LastTick != stopAt-1 {
				t.Fatalf("stopped: LastTick %d, want %d", inj[1].LastTick, stopAt-1)
			}
			_, forecasts := inj[1].Source.(Forecaster)
			if forecasts && visits > stopAt/2 {
				t.Fatalf("gated injector was visited in %d of %d cycles: nothing was elided", visits, stopAt)
			}
			if !forecasts && visits != stopAt {
				t.Fatalf("a source that cannot forecast was visited in %d of %d cycles, want all", visits, stopAt)
			}
		})
	}
}

// TestInjectorRetune: a rate change through Retune replays the cycles a
// gated source slept through at the old rate, keeps the accumulator and
// restarts the forecast, so a source retuned in mid-gap goes on exactly as
// a twin ticked every cycle and retuned at the same cycle; a source that is
// not CBR keeps its rate and says so.
func TestInjectorRetune(t *testing.T) {
	const retuneAt, end = 2500, 6000
	var inj [2]Injector // 0 per-cycle, 1 gated
	for i := range inj {
		inj[i].Source = NewCBRSource(PaperLink, 5*Mbps, 0.37)
		inj[i].Start(0)
	}
	fast := PaperLink.FlitsPerCycle(120 * Mbps)
	for c := int64(0); c < end; c++ {
		if c == retuneAt {
			if inj[1].LastTick >= c-1 {
				t.Fatal("the gated source was not mid-gap at the rate change: nothing to replay")
			}
			for i := range inj {
				if !inj[i].Retune(c-1, fast) {
					t.Fatal("Retune refused a CBR source")
				}
			}
			if a, b := inj[0].Source.(*CBRSource).ExportState(), inj[1].Source.(*CBRSource).ExportState(); a != b || b.PerCycle != fast {
				t.Fatalf("after Retune: per-cycle %+v, gated %+v, want rate %v", a, b, fast)
			}
			if inj[1].LastTick != c-1 || inj[1].NextDue != c {
				t.Fatalf("after Retune: LastTick %d NextDue %d, want %d and %d", inj[1].LastTick, inj[1].NextDue, c-1, c)
			}
		}
		var got [2]int
		for i := range inj {
			if i == 0 || inj[i].NextDue <= c {
				got[i] = inj[i].Arrivals(c)
			}
		}
		if got[0] != got[1] {
			t.Fatalf("cycle %d: %d arrivals per-cycle, %d gated", c, got[0], got[1])
		}
	}

	var vbr Injector
	vbr.Source = NewVBRSource(sim.NewRNG(3), PaperLink, 20*Mbps, 60*Mbps, DefaultGoP())
	vbr.Start(0)
	before := vbr.Source.(*VBRSource).ExportState()
	if vbr.Retune(-1, fast) {
		t.Fatal("Retune changed the rate of a VBR source")
	}
	if st := vbr.Source.(*VBRSource).ExportState(); st.PerCycle != before.PerCycle || vbr.LastTick != -1 || vbr.NextDue != 0 {
		t.Fatalf("VBR after Retune: rate %v (was %v), LastTick %d, NextDue %d", st.PerCycle, before.PerCycle, vbr.LastTick, vbr.NextDue)
	}
}

// TestInjectorReplayReportsStrays: Replay hands back what a broken forecast
// let through instead of panicking as CatchUp does, and still moves
// LastTick, so a caller can report the fault and the state stays in step.
func TestInjectorReplayReportsStrays(t *testing.T) {
	var in Injector
	in.Source = NewCBRSource(PaperLink, 600*Mbps, 0)
	in.Start(0)
	in.NextDue = 1 << 40 // a forecast that lies: the source emits every few cycles
	if k := in.Replay(99); k == 0 || in.LastTick != 99 {
		t.Fatalf("Replay over 100 cycles at 600 Mb/s: %d strays, LastTick %d", k, in.LastTick)
	}
	if k := in.Replay(99); k != 0 {
		t.Fatalf("a second Replay to the same cycle replayed %d flits", k)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CatchUp over a broken forecast did not panic")
		}
	}()
	in.CatchUp(199)
}
