package traffic

import (
	"mmr/internal/sim"
)

// Source produces flit arrivals for one connection or packet flow. Tick is
// called once per flit cycle and returns how many flits arrive during that
// cycle (usually 0 or 1; a bursty VBR source may return more).
type Source interface {
	Tick(cycle int64) int
}

// CBRSource emits flits at a constant bit rate using a fractional
// accumulator, so the long-run rate is exact and the inter-arrival time is
// constant up to one-cycle quantization — matching §5's admission
// assumption that "the inter-arrival time on a connection is constant".
type CBRSource struct {
	perCycle float64 // flits per flit cycle
	acc      float64
	memo     gapMemo // last forecast's sum (forecast.go); never exported
}

// NewCBRSource returns a CBR source for rate r on link l. phase in [0,1)
// staggers the first arrival so concurrent connections are decorrelated;
// pass rng.Float64() for a random phase or 0 for aligned starts.
func NewCBRSource(l Link, r Rate, phase float64) *CBRSource {
	return &CBRSource{perCycle: l.FlitsPerCycle(r), acc: phase}
}

// Tick implements Source.
func (s *CBRSource) Tick(int64) int {
	s.acc += s.perCycle
	n := int(s.acc)
	s.acc -= float64(n)
	return n
}

// BestEffortSource emits single-flit packets as a Poisson process with the
// given mean arrival rate in packets per flit cycle. The MMR equalizes
// packet size with flit size (§3.4), so one arrival is one flit.
type BestEffortSource struct {
	rng  *sim.RNG
	rate float64 // mean packets per cycle
	next float64 // cycle of the next arrival
}

// NewBestEffortSource returns a Poisson source producing packetsPerCycle
// on average.
func NewBestEffortSource(rng *sim.RNG, packetsPerCycle float64) *BestEffortSource {
	s := &BestEffortSource{rng: rng, rate: packetsPerCycle}
	if packetsPerCycle > 0 {
		s.next = rng.Exp(1 / packetsPerCycle)
	} else {
		s.next = 1e18
	}
	return s
}

// Tick implements Source.
func (s *BestEffortSource) Tick(cycle int64) int {
	n := 0
	for float64(cycle) >= s.next {
		n++
		s.next += s.rng.Exp(1 / s.rate)
	}
	return n
}
