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

// Stats is a snapshot of network statistics. The Network keeps one as its
// session-level record (Network.m): the cycle counter and everything
// incremented on the serial control path (establishment, teardown,
// faults). Its datapath fields stay zero there; they live in the per-node
// dpStats shards and are merged in when a snapshot is taken.
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

// sessionCounter is one control-path counter of a Stats record and the
// series that mirrors it.
type sessionCounter struct {
	v          *int64
	name, help string
}

// sessionCounters lists m's control-path counters in the order their
// series are registered (observe.go) and the checkpoint walks them
// (state.go): both orders are format, so an entry is never moved.
func (m *Stats) sessionCounters() [13]sessionCounter {
	return [...]sessionCounter{
		{&m.SetupAttempts, "mmr_net_setup_attempts_total", "connection establishment attempts"},
		{&m.SetupAccepted, "mmr_net_setup_accepted_total", "connection establishments accepted"},
		{&m.SetupRejected, "mmr_net_setup_rejected_total", "connection establishments rejected"},
		{&m.SetupRetries, "mmr_net_setup_retries_total", "establishment re-searches scheduled"},
		{&m.Closed, "mmr_net_conns_closed_total", "connections closed gracefully"},
		{&m.FaultsInjected, "mmr_net_faults_injected_total", "link-down transitions applied"},
		{&m.FaultsRepaired, "mmr_net_faults_repaired_total", "link-up transitions applied"},
		{&m.FaultFlitsLost, "mmr_net_fault_flits_lost_total", "flits purged by link failures and teardowns"},
		{&m.ConnsBroken, "mmr_net_conns_broken_total", "connections torn down by faults"},
		{&m.ConnsRestored, "mmr_net_conns_restored_total", "connections re-established on a surviving path"},
		{&m.ConnsDegraded, "mmr_net_conns_degraded_total", "connections downgraded to best-effort"},
		{&m.ConnsPromoted, "mmr_net_conns_promoted_total", "connections re-promoted from best-effort to guaranteed service"},
		{&m.ConnsLost, "mmr_net_conns_lost_total", "connections abandoned after failed restoration"},
	}
}

// snapshotStats copies the session record and merges every node's
// datapath shard into it, in ascending node order so the floating-point
// accumulator merges are deterministic.
func (n *Network) snapshotStats() *Stats {
	s := n.m
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
	return &s
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
