package network

import (
	"fmt"

	"mmr/internal/flit"
	"mmr/internal/router"
	"mmr/internal/sim"
	"mmr/internal/stats"
)

// simTime converts a cycle count to the event engine's time type.
func simTime(t int64) sim.Time { return sim.Time(t) }

func errBadEndpoints(src, dst int) error {
	return fmt.Errorf("network: invalid endpoints (%d,%d)", src, dst)
}

// dpStats is one node's shard of the datapath statistics. Every counter
// touched inside the cycle's phases lives here — a node only ever writes
// its own shard, next to the rest of its state. Shards are merged in
// ascending node order when a snapshot is taken, which fixes the order of
// the floating-point accumulator merges.
// (Per-connection jitter sequences stay exact because a connection's
// flits all eject at its one destination node, so each sink's tracker sees
// the full, ordered latency series for the connections ending there.)
type dpStats struct {
	generated   int64
	linkFlits   int64
	beGenerated int64

	// sink is where the flits ejected here end (eject): stream delay and
	// jitter, the delivered counts, best-effort latency.
	sink router.Sink

	// Impairment counters survive reset like the session statistics:
	// they describe injected faults, not the warmed-up datapath.
	flitsDropped   int64
	flitsCorrupted int64
}

// reset starts a measurement window, the metric shard the sink observes
// into with it.
func (d *dpStats) reset() {
	d.generated = 0
	d.linkFlits = 0
	d.beGenerated = 0
	d.sink.Reset()
}

// netStats is the session-level statistics state: everything incremented
// on the serial control path (establishment, teardown, faults) plus the
// cycle counter. Datapath counters live in the per-node dpStats shards.
type netStats struct {
	cycles int64

	setupAttempts   int64
	setupAccepted   int64
	setupRejected   int64
	setupRetries    int64
	closed          int64
	setupLatency    stats.Accumulator
	setupBacktracks stats.Accumulator

	// Fault injection and self-healing. Like the setup statistics these
	// survive ResetStats: they describe session-level behaviour.
	faultsInjected int64             // link-down transitions applied
	faultsRepaired int64             // link-up transitions applied
	faultFlitsLost int64             // flits purged by link failures and teardowns
	connsBroken    int64             // connections torn down by faults
	connsRestored  int64             // re-established on a surviving path
	connsDegraded  int64             // downgraded to best-effort after failed restore
	connsPromoted  int64             // re-promoted from best-effort back to guaranteed
	connsLost      int64             // abandoned (restore exhausted, degrade disabled)
	restoreLatency stats.Accumulator // cycles from teardown to re-establishment
}

func (m *netStats) reset() {
	m.cycles = 0
	// Setup and fault statistics survive reset: they describe
	// session-level behaviour, not the warmed-up datapath.
}

// Stats is an immutable snapshot of network statistics.
type Stats struct {
	Cycles         int64
	FlitsGenerated int64
	FlitsDelivered int64
	LinkFlits      int64

	// Latency is end-to-end: flit creation at the source host to ejection
	// at the destination host, in flit cycles. Jitter follows §5's
	// definition over those latencies.
	Latency stats.Accumulator
	Jitter  stats.Accumulator

	BEGenerated int64
	BEDelivered int64
	BELatency   stats.Accumulator

	SetupAttempts   int64
	SetupAccepted   int64
	SetupRejected   int64
	SetupRetries    int64
	Closed          int64
	SetupLatency    stats.Accumulator
	SetupBacktracks stats.Accumulator

	FaultsInjected int64
	FaultsRepaired int64
	FaultFlitsLost int64
	FlitsDropped   int64
	FlitsCorrupted int64
	ConnsBroken    int64
	ConnsRestored  int64
	ConnsDegraded  int64
	ConnsPromoted  int64
	ConnsLost      int64
	RestoreLatency stats.Accumulator
}

// snapshotStats merges the session counters with every node's datapath
// shard, in ascending node order so the floating-point accumulator merges
// are deterministic.
func (n *Network) snapshotStats() *Stats {
	m := &n.m
	s := &Stats{
		Cycles:          m.cycles,
		SetupAttempts:   m.setupAttempts,
		SetupAccepted:   m.setupAccepted,
		SetupRejected:   m.setupRejected,
		SetupRetries:    m.setupRetries,
		Closed:          m.closed,
		SetupLatency:    m.setupLatency,
		SetupBacktracks: m.setupBacktracks,
		FaultsInjected:  m.faultsInjected,
		FaultsRepaired:  m.faultsRepaired,
		FaultFlitsLost:  m.faultFlitsLost,
		ConnsBroken:     m.connsBroken,
		ConnsRestored:   m.connsRestored,
		ConnsDegraded:   m.connsDegraded,
		ConnsPromoted:   m.connsPromoted,
		ConnsLost:       m.connsLost,
		RestoreLatency:  m.restoreLatency,
	}
	for _, nd := range n.nodes {
		d := &nd.stats
		s.FlitsGenerated += d.generated
		s.FlitsDelivered += d.sink.Streams()
		s.LinkFlits += d.linkFlits
		s.BEGenerated += d.beGenerated
		s.BEDelivered += d.sink.Delivered[flit.ClassBestEffort]
		s.FlitsDropped += d.flitsDropped
		s.FlitsCorrupted += d.flitsCorrupted
		s.Latency.Merge(d.sink.Tracker.Delay())
		s.Jitter.Merge(d.sink.Tracker.Jitter())
		s.BELatency.Merge(&d.sink.Latency[flit.ClassBestEffort])
	}
	return s
}

// AcceptanceRate returns accepted/attempted connection setups.
func (s *Stats) AcceptanceRate() float64 {
	if s.SetupAttempts == 0 {
		return 0
	}
	return float64(s.SetupAccepted) / float64(s.SetupAttempts)
}

// String renders a one-line summary.
func (s *Stats) String() string {
	return fmt.Sprintf("cycles=%d delivered=%d latency=%.2f cyc jitter=%.3f accept=%.2f be=%d",
		s.Cycles, s.FlitsDelivered, s.Latency.Mean(), s.Jitter.Mean(), s.AcceptanceRate(), s.BEDelivered)
}
