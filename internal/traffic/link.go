// Package traffic models the workloads the MMR was designed for: constant
// bit rate streams (the paper's evaluation, §5), variable bit rate streams
// with an MPEG-style group-of-pictures structure (§4.3 and the follow-on
// MMR papers), Poisson best-effort packets and short control messages
// (§3.4). It also generates whole router workloads at a target offered
// load, reproducing the paper's experimental setup: rates drawn from a
// fixed set, ports drawn at random, admission limited by link bandwidth.
package traffic

import (
	"math"
	"strconv"
)

// Rate is a bandwidth in bits per second.
type Rate float64

// Convenience rate units.
const (
	Kbps Rate = 1e3
	Mbps Rate = 1e6
	Gbps Rate = 1e9
)

// String implements fmt.Stringer with the natural unit: the value in it to
// four significant digits, as %.4g writes it, built without fmt — a
// refused request's error text carries one.
func (r Rate) String() string {
	v, unit := float64(r), "bps"
	switch {
	case r >= Gbps:
		v, unit = float64(r/Gbps), "Gbps"
	case r >= Mbps:
		v, unit = float64(r/Mbps), "Mbps"
	case r >= Kbps:
		v, unit = float64(r/Kbps), "Kbps"
	}
	return string(append(strconv.AppendFloat(make([]byte, 0, 24), v, 'g', 4, 64), unit...))
}

// PaperRates is the connection-rate population of §5: "Connections were
// randomly selected from the set (64 Kbps, 128 Kbps, 1.54 Mbps, 2 Mbps,
// 5 Mbps, 10 Mbps, 20 Mbps, 55 Mbps, 120 Mbps)". (The archived text lost
// trailing zeros to OCR; this is the rate set used across the MMR papers.)
var PaperRates = []Rate{
	64 * Kbps, 128 * Kbps, 1.54 * Mbps, 2 * Mbps, 5 * Mbps,
	10 * Mbps, 20 * Mbps, 55 * Mbps, 120 * Mbps,
}

// Link describes a physical link and the router's flit geometry; it fixes
// the flit-cycle timebase every simulation runs on.
type Link struct {
	Bandwidth Rate // physical link rate
	FlitBits  int  // flit size in bits (§5 uses 128)
	PhitBits  int  // phit size in bits (internal datapath width)
}

// PaperLink is the configuration of the paper's experiments: 1.24 Gbps
// links and 128-bit flits, giving a flit cycle of ~103 ns.
var PaperLink = Link{Bandwidth: 1.24 * Gbps, FlitBits: 128, PhitBits: 16}

// FlitCycleSeconds returns the duration of one flit cycle: the time the
// link needs to move one flit.
func (l Link) FlitCycleSeconds() float64 {
	return float64(l.FlitBits) / float64(l.Bandwidth)
}

// FlitCycleNanos returns the flit cycle in nanoseconds.
func (l Link) FlitCycleNanos() float64 { return l.FlitCycleSeconds() * 1e9 }

// CyclesPerSecond returns how many flit cycles fit in one second.
func (l Link) CyclesPerSecond() float64 { return 1 / l.FlitCycleSeconds() }

// PhitsPerFlit returns how many phits make up one flit.
func (l Link) PhitsPerFlit() int {
	if l.PhitBits <= 0 {
		return 1
	}
	n := l.FlitBits / l.PhitBits
	if n < 1 {
		n = 1
	}
	return n
}

// FlitsPerCycle converts a connection rate into flits per flit cycle —
// the fraction of the link the connection consumes.
func (l Link) FlitsPerCycle(r Rate) float64 { return float64(r) / float64(l.Bandwidth) }

// InterArrivalCycles returns the constant flit inter-arrival time of a CBR
// connection at rate r, in flit cycles.
func (l Link) InterArrivalCycles(r Rate) float64 {
	if r <= 0 {
		return 0
	}
	return float64(l.Bandwidth) / float64(r)
}

// MaxCyclesPerRound is the demand CyclesPerRound reports for a rate too
// large to count — one that is not finite, or whose flit cycles per round
// do not fit an int32: more than any round holds, so no admission register
// takes it, and small enough that adding it to one cannot overflow.
const MaxCyclesPerRound = math.MaxInt32

// CyclesPerRound converts a rate demand into the MMR's bandwidth
// allocation unit, flit cycles per round (§4.1-4.2), rounding up so the
// allocation never undershoots the demand.
func (l Link) CyclesPerRound(r Rate, roundLen int) int {
	if r <= 0 {
		return 0
	}
	frac := l.FlitsPerCycle(r) * float64(roundLen)
	if !(frac < MaxCyclesPerRound) {
		return MaxCyclesPerRound
	}
	c := int(frac)
	if float64(c) < frac {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}
