package sched

import "mmr/internal/vcm"

// PriorityScheme computes the scheduling priority of the flit at the head
// of a virtual channel. The paper recomputes head-flit priorities every
// flit cycle (§4.4); computing them on demand from timestamps is
// equivalent and cheaper in software. Everything a scheme reads is in the
// VC's record — the head flit's arrival stamp is mirrored there — so a
// priority evaluation never loads the flit.
type PriorityScheme interface {
	Priority(now int64, st *vcm.VCState) float64
	Name() string
}

// Biased is the paper's dynamic priority-biasing scheme (§5.1): the
// priority of a head flit is the ratio of the delay it has experienced at
// the switch to the connection's flit inter-arrival time, so priorities
// grow at a rate set by the connection's QoS (faster connections grow
// faster). A VBR connection's static base priority is added so that
// priority classes remain distinguishable (§4.3).
type Biased struct{}

// Priority implements PriorityScheme.
func (Biased) Priority(now int64, st *vcm.VCState) float64 {
	waited := float64(now - st.HeadReadyAt())
	if waited < 0 {
		waited = 0
	}
	ia := st.InterArrival
	if ia <= 0 {
		// Packets (control/best-effort) have no stream inter-arrival; age
		// them in raw cycles so they cannot starve within their phase.
		return float64(st.BasePriority) + waited
	}
	return float64(st.BasePriority) + waited/ia
}

// Name implements PriorityScheme.
func (Biased) Name() string { return "biased" }

// Fixed is the static-priority baseline (§4.4 "static priorities", the
// "Fixed" curves of Figures 3-5): each connection keeps the priority it
// was assigned at establishment, regardless of how long its flits wait.
type Fixed struct{}

// Priority implements PriorityScheme.
func (Fixed) Priority(_ int64, st *vcm.VCState) float64 {
	return float64(st.BasePriority)
}

// Name implements PriorityScheme.
func (Fixed) Name() string { return "fixed" }

// OldestFirst serves the head flit that has waited longest in absolute
// cycles — classic age-based arbitration (the scheme of [7,20] that the
// paper contrasts with QoS-metric biasing, where service depends "simply
// [on] the time spent by the packet in the network"). Included for
// ablations.
type OldestFirst struct{}

// Priority implements PriorityScheme.
func (OldestFirst) Priority(now int64, st *vcm.VCState) float64 {
	waited := float64(now - st.HeadReadyAt())
	if waited < 0 {
		waited = 0
	}
	return float64(st.BasePriority) + waited
}

// Name implements PriorityScheme.
func (OldestFirst) Name() string { return "oldest-first" }
