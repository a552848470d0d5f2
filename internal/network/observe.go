package network

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mmr/internal/flit"
	"mmr/internal/metrics"
	"mmr/internal/router"
)

// observe.go is the network's observability layer: a zero-alloc metrics
// registry sharded per node exactly like dpStats, plus one flight
// recorder per node. Counters the simulator already maintains (dpStats,
// the session record, scheduler counters) are mirrored into the registry
// at gather time so the hot path is not charged twice for them; only
// genuinely new series — per-class delay/jitter histograms, per-output
// grant counters, claim failures, dead-output skips — record inside the
// flit cycle, and each of those is a slice increment on the node's own
// shard. Nothing here enters Stats, so snapshots stay bit-identical to
// the uninstrumented simulation.

// flightRingSize is the per-node flight-recorder capacity. 256 events
// covers several round-trips of fault → teardown → restore on every
// topology the tests use while keeping the per-node footprint at 8 KiB.
const flightRingSize = 256

// Flight-recorder event codes (metrics.Event.Code).
const (
	evLinkDown uint16 = iota + 1
	evLinkUp
	evConnBroken
	evConnRestored
	evConnDegraded
	evConnLost
	evFlitDropped
	evFlitCorrupted
	evInvariantFail
	evConnModified
	evConnPromoted
)

// FlightEventName decodes a network flight-recorder event code.
func FlightEventName(code uint16) string {
	switch code {
	case evLinkDown:
		return "link-down"
	case evLinkUp:
		return "link-up"
	case evConnBroken:
		return "conn-broken"
	case evConnRestored:
		return "conn-restored"
	case evConnDegraded:
		return "conn-degraded"
	case evConnLost:
		return "conn-lost"
	case evFlitDropped:
		return "flit-dropped"
	case evFlitCorrupted:
		return "flit-corrupted"
	case evInvariantFail:
		return "invariant-fail"
	case evConnModified:
		return "conn-modified"
	case evConnPromoted:
		return "conn-promoted"
	default:
		return fmt.Sprintf("code=%d", code)
	}
}

// netMetrics holds every metric handle the network records or mirrors.
type netMetrics struct {
	reg *metrics.Registry

	// Hot-path series, recorded inside the flit cycle on the stepping
	// node's shard.
	grantsByPort []metrics.Counter // executed switch grants, per output port
	claimFailed  metrics.Counter   // packet grants dropped: no free VC downstream
	deadOutput   metrics.Counter   // packet grants dropped: chosen output link down
	sink         *router.SinkSeries

	// Mirrored from dpStats at gather time.
	generated      metrics.Counter
	delivered      metrics.Counter
	linkFlits      metrics.Counter
	beGenerated    metrics.Counter
	beDelivered    metrics.Counter
	flitsDropped   metrics.Counter
	flitsCorrupted metrics.Counter

	// Session-level counters, one per entry of Stats.sessionCounters,
	// mirrored into shard 0 (they are maintained on the control path,
	// which has no shard).
	session []metrics.Counter

	// Mirrored out of each node's Core (router.Core.Mirror): the link
	// schedulers' counters and the per-port VC and bandwidth gauges.
	core router.CoreSeries

	// Gauges computed from live state by the gather collector.
	cycles     metrics.Gauge
	switchUtil metrics.Gauge // executed grants / (cycles × radix), per node
}

// initMetrics registers the network's metric catalog, creates one shard
// per node, and installs the gather-time collector. Must run after the
// nodes are built (New) and before any Step.
func (n *Network) initMetrics() {
	reg := metrics.NewSharded("node")
	nm := &netMetrics{reg: reg}
	radix := n.cfg.radix()

	for p := 0; p < radix; p++ {
		port := strconv.Itoa(p)
		nm.grantsByPort = append(nm.grantsByPort, reg.Counter(
			"mmr_net_grants_total", "switch grants executed per output port", "port", port))
	}
	nm.claimFailed = reg.Counter("mmr_net_claim_failed_total",
		"packet grants dropped because no downstream VC was free")
	nm.deadOutput = reg.Counter("mmr_net_dead_output_skips_total",
		"packet grants dropped because the chosen output link was down")
	// A packet's latency is its end-to-end delay: every class is a sample.
	nm.sink = router.RegisterSink(reg, func(c flit.Class) string { return strings.ToLower(c.String()) },
		router.Family{Name: "mmr_net_delay_cycles", Help: "end-to-end delay by service class", Buckets: metrics.Pow2Buckets(1, 14)},
		router.Family{Name: "mmr_net_jitter_cycles", Help: "delay difference between successive flits of a connection", Buckets: metrics.Pow2Buckets(1, 10)},
		true)

	nm.generated = reg.Counter("mmr_net_flits_generated_total", "stream flits injected")
	nm.delivered = reg.Counter("mmr_net_flits_delivered_total", "stream flits ejected")
	nm.linkFlits = reg.Counter("mmr_net_link_flits_total", "flits transmitted onto inter-router links")
	nm.beGenerated = reg.Counter("mmr_net_be_generated_total", "best-effort packets injected")
	nm.beDelivered = reg.Counter("mmr_net_be_delivered_total", "best-effort packets ejected")
	nm.flitsDropped = reg.Counter("mmr_net_flits_dropped_total", "flits dropped by link impairments")
	nm.flitsCorrupted = reg.Counter("mmr_net_flits_corrupted_total", "flits corrupted by link impairments")
	nm.core = router.RegisterCore(reg, "mmr_net", radix)

	for _, sc := range n.m.sessionCounters() {
		nm.session = append(nm.session, reg.Counter(sc.name, sc.help))
	}

	nm.cycles = reg.Gauge("mmr_net_cycles", "flit cycles simulated since the last stats reset")
	nm.switchUtil = reg.Gauge("mmr_net_switch_utilization",
		"executed grants per node per cycle, normalized by radix")

	for _, nd := range n.nodes {
		nd.ms = reg.NewShard()
		nd.stats.sink.Bind(nd.ms, nm.sink)
		nd.rec = metrics.NewRecorder(flightRingSize)
	}
	reg.OnGather(n.collectMetrics)
	reg.OnSnapshot(n.appendTenantMetrics)
	n.nm = nm
}

// collectMetrics mirrors simulator-maintained state into the registry.
// It runs at the start of every Gather, serially, nodes in ascending
// order — never concurrently with the flit cycle.
func (n *Network) collectMetrics() {
	nm := n.nm
	radix := n.cfg.radix()
	for _, nd := range n.nodes {
		d := &nd.stats
		nd.ms.Store(nm.generated, d.generated)
		nd.ms.Store(nm.delivered, d.sink.Streams())
		nd.ms.Store(nm.linkFlits, d.linkFlits)
		nd.ms.Store(nm.beGenerated, d.beGenerated)
		nd.ms.Store(nm.beDelivered, d.sink.Delivered[flit.ClassBestEffort])
		nd.ms.Store(nm.flitsDropped, d.flitsDropped)
		nd.ms.Store(nm.flitsCorrupted, d.flitsCorrupted)

		nd.Mirror(nd.ms, &nm.core)

		if n.m.Cycles > 0 {
			var grants int64
			for p := 0; p < radix; p++ {
				grants += nd.ms.CounterValue(nm.grantsByPort[p])
			}
			nd.ms.Set(nm.switchUtil, float64(grants)/float64(n.m.Cycles)/float64(radix))
		}
	}

	// Session-level counters live on the control path; shard 0 carries them.
	s0 := n.nodes[0].ms
	for i, sc := range n.m.sessionCounters() {
		s0.Store(nm.session[i], *sc.v)
	}
	s0.Set(nm.cycles, float64(n.m.Cycles))
}

// GatherMetrics snapshots the registry. Call between steps only, from the
// goroutine that steps the network.
func (n *Network) GatherMetrics() *metrics.Snapshot { return n.nm.reg.Gather() }

// recordFlight appends one event to a node's flight recorder and, when a
// fault-class event fires with a flight sink configured, dumps the
// recorders to it.
func (n *Network) recordFlight(nodeID int, code uint16, a, b int32, aux int64) {
	n.nodes[nodeID].rec.Record(metrics.Event{
		Cycle: n.now, Code: code, Node: int16(nodeID), A: a, B: b, Aux: aux,
	})
}

// DumpFlight writes every node's flight recorder to w, nodes in
// ascending order, oldest events first.
func (n *Network) DumpFlight(w io.Writer) {
	for _, nd := range n.nodes {
		if nd.rec.Len() == 0 {
			continue
		}
		fmt.Fprintf(w, "--- node %d flight recorder (%d/%d events retained) ---\n",
			nd.id, nd.rec.Len(), nd.rec.Total())
		nd.rec.Dump(w, FlightEventName)
	}
}

// SetFlightSink directs automatic flight-recorder dumps — fired when a
// fault transition lands or an invariant check fails — to w. nil (the
// default) limits automatic dumps to the invariant-failure path, which
// falls back to stderr.
func (n *Network) SetFlightSink(w io.Writer) { n.flightSink = w }

// dumpFlightOnFault emits the recorders to the configured sink after a
// fault transition, if a sink is installed.
func (n *Network) dumpFlightOnFault() {
	if n.flightSink == nil {
		return
	}
	fmt.Fprintf(n.flightSink, "=== flight dump: fault transition at cycle %d ===\n", n.now)
	n.DumpFlight(n.flightSink)
}

// dumpFlightOnInvariant emits the recorders when an invariant audit
// fails, to the sink if installed, else stderr — the post-mortem the
// panic message alone cannot give.
func (n *Network) dumpFlightOnInvariant(err error) {
	w := n.flightSink
	if w == nil {
		w = os.Stderr
	}
	fmt.Fprintf(w, "=== flight dump: invariant failure at cycle %d: %v ===\n", n.now, err)
	n.DumpFlight(w)
}
