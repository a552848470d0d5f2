package traffic

import (
	"math"

	"mmr/internal/sim"
)

// FrameKind is an MPEG picture type.
type FrameKind uint8

// MPEG picture types: intra-coded, predicted, bidirectional.
const (
	FrameI FrameKind = iota
	FrameP
	FrameB
)

// GoP describes a group-of-pictures pattern. DefaultGoP is the classic
// N=12, M=3 pattern (IBBPBBPBBPBB) at 30 frames/s, the structure of the
// MPEG-2 traces used to evaluate the MMR in the project's follow-on work.
type GoP struct {
	Pattern   []FrameKind
	FrameRate float64 // frames per second
	// Relative mean sizes of I, P and B frames. Typical MPEG-2 ratios are
	// about 5:3:1 after rate control.
	IWeight, PWeight, BWeight float64
	// Sigma is the log-normal shape of per-frame size noise; 0 disables it.
	Sigma float64
}

// DefaultGoP returns the standard IBBPBBPBBPBB pattern at 30 fps with
// moderate frame-size variability.
func DefaultGoP() GoP {
	return GoP{
		Pattern: []FrameKind{
			FrameI, FrameB, FrameB, FrameP, FrameB, FrameB,
			FrameP, FrameB, FrameB, FrameP, FrameB, FrameB,
		},
		FrameRate: 30,
		IWeight:   5, PWeight: 3, BWeight: 1,
		Sigma: 0.2,
	}
}

// meanWeight returns the average per-frame weight across the pattern.
func (g GoP) meanWeight() float64 {
	var sum float64
	for _, k := range g.Pattern {
		sum += g.weight(k)
	}
	return sum / float64(len(g.Pattern))
}

func (g GoP) weight(k FrameKind) float64 {
	switch k {
	case FrameI:
		return g.IWeight
	case FrameP:
		return g.PWeight
	default:
		return g.BWeight
	}
}

// VBRSource models a compressed-video connection: every frame interval it
// draws a frame size from the GoP pattern (with log-normal noise) and
// spreads the frame's flits evenly across the interval, injecting at most
// peak rate. Excess bits queue at the source, modeling interface policing
// (§4.2: injection is limited so a connection never exceeds its
// allocation; flow control pushes back to the source interface).
type VBRSource struct {
	rng       *sim.RNG
	gop       GoP
	meanBits  float64 // mean bits per frame at the target average rate
	frameLen  float64 // flit cycles per frame interval
	peakPer   float64 // max flits per cycle (policed injection ceiling)
	flitBits  float64
	frameIdx  int
	nextFrame float64 // cycle the next frame arrives
	backlog   float64 // bits waiting at the source
	acc       float64 // fractional flit accumulator
	perCycle  float64 // current injection rate, flits/cycle
	memo      gapMemo // last forecast's sum (forecast.go); never exported
}

// NewVBRSource returns a VBR source with the given average and peak rates
// on link l. Peak must be >= avg; frames that would exceed peak injection
// are smoothed into later intervals.
func NewVBRSource(rng *sim.RNG, l Link, avg, peak Rate, gop GoP) *VBRSource {
	if peak < avg {
		peak = avg
	}
	frameLen := l.CyclesPerSecond() / gop.FrameRate
	return &VBRSource{
		rng:       rng,
		gop:       gop,
		meanBits:  float64(avg) / gop.FrameRate,
		frameLen:  frameLen,
		peakPer:   l.FlitsPerCycle(peak),
		flitBits:  float64(l.FlitBits),
		nextFrame: 0,
	}
}

// frameBits draws the size of the next frame in bits.
func (s *VBRSource) frameBits() float64 {
	k := s.gop.Pattern[s.frameIdx%len(s.gop.Pattern)]
	s.frameIdx++
	base := s.meanBits * s.gop.weight(k) / s.gop.meanWeight()
	if s.gop.Sigma > 0 {
		// Log-normal multiplicative noise with unit mean.
		n := s.rng.Norm()
		base *= math.Exp(s.gop.Sigma*n - s.gop.Sigma*s.gop.Sigma/2)
	}
	return base
}

// Tick implements Source.
func (s *VBRSource) Tick(cycle int64) int {
	for float64(cycle) >= s.nextFrame {
		s.backlog += s.frameBits()
		s.nextFrame += s.frameLen
		// Target injection: drain the backlog over one frame interval,
		// capped at the peak rate.
		s.perCycle = s.backlog / s.flitBits / s.frameLen
		if s.perCycle > s.peakPer {
			s.perCycle = s.peakPer
		}
	}
	if s.backlog < s.flitBits {
		return 0
	}
	s.acc += s.perCycle
	n := int(s.acc)
	if max := int(s.backlog / s.flitBits); n > max {
		n = max
	}
	s.acc -= float64(n)
	s.backlog -= float64(n) * s.flitBits
	return n
}
