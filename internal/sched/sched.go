// Package sched implements the MMR's two-level scheduling framework: the
// per-input-port link schedulers that nominate candidate virtual channels
// each flit cycle (§4.3), and the switch schedulers that arbitrate output
// conflicts and set the crossbar (§4.4). It provides the four schemes the
// paper evaluates (§5.1): dynamically biased priorities, fixed priorities,
// the Autonet/DEC randomized matching of Anderson et al., and the perfect
// switch that lower-bounds delay and jitter.
package sched

// Phase orders candidates by service class before priority, encoding the
// link scheduler's service order (§3.4, §4.3): control packets first, then
// guaranteed stream bandwidth (CBR allocations and VBR permanent
// bandwidth), then VBR excess bandwidth, then best-effort packets.
type Phase int

// Service phases in strictly decreasing precedence.
const (
	PhaseControl Phase = iota
	PhaseGuaranteed
	PhaseExcess
	PhaseBestEffort
)

// Candidate is one virtual channel a link scheduler offers to the switch
// scheduler for the next flit cycle.
type Candidate struct {
	Input    int     // physical input port
	VC       int     // virtual channel on that port
	Output   int     // requested output port (direct channel mapping)
	Phase    Phase   // service class precedence
	Priority float64 // within-phase priority; larger wins
}

// better reports whether a should be served before b: lower phase first,
// then higher priority, then (for determinism) lower input and VC. It
// takes pointers: a Candidate is 40 bytes, and the arbiters compare many
// in place each cycle.
func better(a, b *Candidate) bool {
	if a.Phase != b.Phase {
		return a.Phase < b.Phase
	}
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.Input != b.Input {
		return a.Input < b.Input
	}
	return a.VC < b.VC
}

// NoGrant marks an input that won nothing this flit cycle.
const NoGrant = -1

// SwitchScheduler computes, for one flit cycle, which candidate (if any)
// each input port transmits. grants[in] receives the index into cands[in]
// of the winning candidate, or NoGrant. Implementations must not retain
// cands.
type SwitchScheduler interface {
	// Schedule arbitrates the candidates. len(grants) is the port count and
	// must equal len(cands).
	Schedule(cands [][]Candidate, grants []int)
	// OutputSharing reports whether several inputs may win the same output
	// in one cycle (true only for the perfect switch, §5.1).
	OutputSharing() bool
	// Name identifies the scheme in experiment output.
	Name() string
}
