package trace

import (
	"math"

	"mmr/internal/traffic"
)

// Source plays a trace as a VBR flit source: every frame interval the
// next frame's bits join the source backlog, which drains at up to the
// policed peak rate (§4.2 injection limitation) smoothed over one frame
// interval — the same discipline as traffic.VBRSource, but driven by
// recorded frame sizes instead of a statistical model. The trace loops.
type Source struct {
	trace    *Trace
	frameLen float64 // flit cycles per frame interval
	peakPer  float64 // max flits per cycle
	flitBits float64

	idx       int
	nextFrame float64
	backlog   float64
	perCycle  float64
	acc       float64
}

// NewSource returns a source replaying tr on link l, injection-limited to
// peak. A zero peak defaults to 3× the trace's mean rate.
func NewSource(tr *Trace, l traffic.Link, peak traffic.Rate) *Source {
	if peak <= 0 {
		peak = traffic.Rate(3 * float64(tr.MeanRate()))
	}
	return &Source{
		trace:    tr,
		frameLen: l.CyclesPerSecond() / tr.FrameRate,
		peakPer:  l.FlitsPerCycle(peak),
		flitBits: float64(l.FlitBits),
	}
}

// Tick implements traffic.Source.
func (s *Source) Tick(cycle int64) int {
	for float64(cycle) >= s.nextFrame {
		s.backlog += float64(s.trace.Frames[s.idx].Bits)
		s.idx = (s.idx + 1) % len(s.trace.Frames)
		s.nextFrame += s.frameLen
		s.perCycle = math.Min(s.backlog/s.flitBits/s.frameLen, s.peakPer)
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

// exp is math.Exp, named to keep trace.go free of a math import knot.
func exp(x float64) float64 { return math.Exp(x) }
