// Package network assembles MMR routers into a cluster/LAN fabric: a
// topology of routers joined by flow-controlled links, host interfaces
// injecting streams and packets, EPB connection establishment reserving a
// virtual channel and bandwidth at every hop (§3.5, §4.2), per-hop
// channel mappings forwarding stream flits, and up*/down* adaptive
// routing for best-effort packets. The flit datapath is cycle-synchronous
// like the single-router engine; connection-level dynamics (arrivals,
// holding times) ride on the discrete-event engine in internal/sim.
//
// Modeling note: probe propagation contends only for control bandwidth,
// not for data flit cycles — control packets preempt data and ride the
// reconfiguration gaps (§3.4) — so establishment is evaluated against the
// instantaneous resource state, with its latency charged as
// HopLatency × hops (plus backtracks). DESIGN.md records this
// substitution.
package network

import (
	"fmt"
	"io"
	"math"
	"slices"

	"mmr/internal/admission"
	"mmr/internal/bitvec"
	"mmr/internal/faults"
	"mmr/internal/flit"
	"mmr/internal/flow"
	"mmr/internal/metrics"
	"mmr/internal/router"
	"mmr/internal/routing"
	"mmr/internal/sched"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
	"mmr/internal/vcm"
)

// Config sizes a network. Router radix is Topology.Ports + 1: the extra
// port attaches the node's host interface.
type Config struct {
	Topology *topology.Topology
	Link     traffic.Link
	VCs      int // virtual channels per input port
	Depth    int // flits per VC buffer
	K        int // round multiplier (round = K × VCs cycles)

	MaxCandidates int
	Scheme        sched.PriorityScheme
	ArbiterIters  int

	// Route selects how establishment picks candidate paths.
	// RouteMinimal (the zero value) is the classic EPB search over
	// minimal paths; RouteValiant and RouteUGAL first try a multipath
	// candidate (randomized detour over the up*/down* orientation,
	// optionally load-compared against the minimal route) and fall back
	// to the EPB search when the candidate cannot reserve. The default
	// keeps establishment decisions — and therefore every golden suite —
	// bit-exact with prior versions.
	Route routing.RouteMode

	// LinkDelay is the flit propagation delay between routers in cycles;
	// HopLatency is the probe processing cost per hop during
	// establishment (routing decision + VC reservation, §3.5).
	LinkDelay  int64
	HopLatency int64

	Concurrency float64
	Seed        uint64

	// NoIdleSkip disables activity gating: every node is stepped every
	// cycle, every port is scanned, and Run never fast-forwards the clock
	// across idle gaps. Gating is bit-exact by construction (see
	// docs/performance.md, "Activity gating and idle-cycle elision"), so
	// this is a debugging escape hatch and the reference side of the
	// gating-equivalence tests, not a correctness knob.
	NoIdleSkip bool

	// Fault governs how the network reacts to injected faults (link and
	// router failures, flit impairments) — see internal/faults.
	Fault FaultPolicy
}

// FaultPolicy is the connection-survivability policy applied when a
// fault breaks established connections.
type FaultPolicy struct {
	// Restore re-establishes broken connections on a surviving path with
	// bounded, exponentially backed-off, jittered re-searches.
	Restore bool
	// MaxRetries bounds restoration (and OpenWithRetry) re-search
	// attempts after the first.
	MaxRetries int
	// RetryBackoff is the base backoff in cycles; attempt k waits
	// RetryBackoff × 2^k plus up to 50% jitter.
	RetryBackoff int64
	// Degrade downgrades a connection whose restoration failed (or was
	// disabled) to a best-effort packet flow at the same rate instead of
	// dropping the session.
	Degrade bool
	// Promote re-establishes degraded connections back to guaranteed
	// service when capacity returns (link/router repairs, closes,
	// bandwidth shrinks) — §4.3's renegotiation applied to the fault
	// lifecycle. Scans are budget-bounded and ride the serial event path
	// with jittered backoff, so the flit-cycle hot path is untouched.
	// Requires Degrade (without it nothing ever degrades).
	Promote bool
	// Paranoid audits the global resource invariants after every fault
	// transition and panics on a violation (test mode; the audit is only
	// run at transitions, so it is cheap enough to leave on).
	Paranoid bool
}

// DefaultConfig returns a workable configuration for the given topology:
// paper link geometry, 64 VCs per port, biased scheduling.
func DefaultConfig(t *topology.Topology) Config {
	return Config{
		Topology:      t,
		Link:          traffic.PaperLink,
		VCs:           64,
		Depth:         4,
		K:             2,
		MaxCandidates: 8,
		Scheme:        sched.Biased{},
		LinkDelay:     1,
		HopLatency:    4,
		Concurrency:   2,
		Seed:          1,
		Fault: FaultPolicy{
			Restore:      true,
			MaxRetries:   5,
			RetryBackoff: 32,
			Degrade:      true,
			Promote:      true,
			Paranoid:     true,
		},
	}
}

func (c *Config) validate() error {
	if c.Topology == nil {
		return fmt.Errorf("network: nil topology")
	}
	// Wiring connectivity, not live connectivity: a network may be built
	// while links are down (restoring a checkpoint taken mid-outage).
	if !c.Topology.WiredConnected() {
		return fmt.Errorf("network: topology not connected")
	}
	if c.VCs < 1 || c.Depth < 1 || c.K < 1 {
		return fmt.Errorf("network: invalid buffering VCs=%d depth=%d K=%d", c.VCs, c.Depth, c.K)
	}
	if max(c.VCs, c.radix(), c.Topology.Nodes) > math.MaxInt16 { // ChannelMap, metrics.Event
		return fmt.Errorf("network: VCs=%d, radix=%d and nodes=%d must each be at most %d", c.VCs, c.radix(), c.Topology.Nodes, math.MaxInt16)
	}
	if c.MaxCandidates < 1 {
		return fmt.Errorf("network: need at least one candidate")
	}
	if c.LinkDelay < 0 || c.HopLatency < 0 {
		return fmt.Errorf("network: negative latency")
	}
	if c.Concurrency < 1 {
		return fmt.Errorf("network: concurrency factor < 1")
	}
	return nil
}

// hostPort returns the port index used by a node's host interface.
func (c *Config) hostPort() int { return c.Topology.Ports }

// radix returns the router degree including the host port.
func (c *Config) radix() int { return c.Topology.Ports + 1 }

// linkFlit is a flit in flight on an inter-router link, addressed to a
// reserved VC on the far input port.
type linkFlit struct {
	vc int
	f  *flit.Flit
}

// inEdge is one precomputed wired inbound link of a node: the peer that
// feeds local input port `port`, and the flat index of the peer's
// outbound lane pair in the network's wire array. Wiring is immutable
// after construction (faults only flip live/up state), so these lists are
// built once and let the per-cycle passes — delivery, the wake table's
// push lists — use the wire array without topology lookups or per-node
// pointer chasing.
type inEdge struct {
	lane     int32 // peer's wire index: peer*radix + peerPort
	port     int32 // local input port fed by this edge
	peer     int32 // wired upstream node
	peerPort int32 // peer's output port (its lane slot within the segment)
}

// node is one router plus its host interface: the shared router.Core —
// VC memories, link schedulers, bandwidth registers, switch scheduler —
// and around it what a fabric adds: staging lanes to its wired peers, the
// channel mapping, the routing unit's state, and what makes its share of a
// cycle independent of the order nodes are visited in (a deterministic RNG
// stream, a statistics shard, scratch buffers).
//
// Core.Credits[p] is the shadow credit view the link scheduler of input
// port p ANDs with flits_available: one counter per local input VC,
// mirroring the downstream buffer that VC's flits move into. Stream VCs
// track the reserved next-hop VC; packet VCs stay full (their next-hop VC
// is reserved per packet at transmit time, §3.4).
type node struct {
	router.Core
	id   int
	cmap *routing.ChannelMap

	// Outbound staging lanes, one pair per port (lanes.go). This node is
	// the only writer (commit phase); the wired peer is the only reader
	// (its next delivery phase). A subslice view into the network's flat
	// array (see Network.wires).
	out []wire

	// in lists this node's wired inbound edges in ascending input-port
	// order; outPeer[p] is the node wired at output port p (-1 unwired) and
	// peerIn[p] the index in that node's in list of the edge from here.
	// Precomputed at construction — wiring never changes. inbound has bit i
	// set while the lane pair of in[i] may hold an entry: the sender sets it
	// with every push (notePush), the gated deliver pass clears it.
	in      []inEdge
	outPeer []int32
	peerIn  []int32
	inbound bitvec.Vector

	// dropCredits stages credits synthesized by impairment drops during
	// the delivery phase (the lane's reader drains it in that same phase);
	// flushed to credOut at the start of the commit phase.
	dropCredits []stagedCredit

	// grantVC[in] is the resolved target VC for input in's grant this
	// cycle: a VC index, grantEject, or grantSkip.
	grantVC []int

	// Per-node state of the cycle: a decorrelated RNG stream (seeded
	// from the master seed + node index), a statistics shard merged in
	// ascending node order at snapshot, and routing scratch.
	rng          *sim.RNG
	stats        dpStats
	tstats       tenantNodeStats // per-tenant delivery shard (tenantstats.go)
	scratchPorts []int

	// Observability: this node's metric shard (written only while this
	// node is stepped, like the stats shard) and its flight recorder.
	ms  *metrics.Shard
	rec *metrics.Recorder

	// Host-side injectors homed on this node (sources bound to this
	// node's RNG stream; ticked only in this node's commit phase).
	srcConns []*Conn
	beSrc    []*beFlow

	// Activity gating (wake.go), all owned by this node. cal files the
	// stream sessions of srcConns by when injectStreams must look at them,
	// pcal the flows of beSrc by when injectPackets must (touch invalidates
	// both — the control plane edits the lists, never the calendars).
	// inboundAt is the earliest entry its delivery phase left
	// unmatured on its inbound lanes. blocked counts the buffered packet
	// flits the routing unit could not route this cycle and stuck marks
	// their VCs (bit port·VCs+vc): until reroute is set — a VC came free
	// toward this node, or the routing changed — the routing unit need not
	// try them again.
	cal       traffic.Calendar[*Conn]
	pcal      traffic.Calendar[*beFlow]
	inboundAt int64
	blocked   int
	stuck     *bitvec.Vector
	reroute   bool

	// More rows of the work ledger (Core.Work has the rest): unrouted packets
	// looked at and, of those, tried (not stuck); inbound lane pairs polled.
	routeVisited, routeTried, lanesPolled int64
}

// Sentinels for node.grantVC.
const (
	grantEject = -1 // granted to the host port: eject locally
	grantSkip  = -2 // grant abandoned (dead link, no downstream VC)
)

// Conn is an established end-to-end connection.
type Conn struct {
	ID         flit.ConnID
	Src, Dst   int
	Tenant     string // admission-quota owner ("" = default tenant, unlimited)
	Spec       traffic.ConnSpec
	Path       []routing.PathHop // (node, outPort) hops, src router → dst router
	VCs        []routing.VCRef   // reserved input (port, VC) at each router on the path
	Nodes      []int             // router sequence src → dst (len(Path)+1 entries)
	SetupTime  int64             // cycles spent establishing (probe + ack)
	Backtracks int

	// Fault lifecycle. A connection broken by a fault has its resources
	// fully released; restoration re-runs establishment on the surviving
	// topology and revives the same Conn (same ID).
	Restores int  // successful re-establishments after faults
	Degraded bool // downgraded to a best-effort flow after restoration failed

	ni traffic.Injector // source and interface queue at the Src host

	open     bool  // injection enabled
	closed   bool  // resources released
	broken   bool  // torn down by a fault; restoration may be pending
	lost     bool  // restoration exhausted and degradation disabled
	brokenAt int64 // cycle of the most recent fault teardown

	// dstSlot is this connection's index in the destination node's jitter
	// tracker. Slots are per-destination (assigned in establishment order
	// at each dst), so tracker arrays scale with the sessions actually
	// terminating at a node instead of the global session count. -1 until
	// assigned.
	dstSlot int32

	// tenantSlot is the dense index of this connection's tenant in the
	// per-tenant telemetry shards (tenantstats.go), assigned alongside
	// dstSlot so the ejecting node attributes delivered flits with one
	// flat-array index.
	tenantSlot int32
}

// Open reports whether the connection currently carries guaranteed
// traffic (established and not broken, closed, or degraded).
func (c *Conn) Open() bool { return c.open && !c.closed }

// Broken reports whether the connection is currently torn down by a
// fault with restoration pending or abandoned.
func (c *Conn) Broken() bool { return c.broken }

// Closed reports whether the connection was closed — gracefully, or by
// retiring a degraded session's best-effort fallback flow.
func (c *Conn) Closed() bool { return c.closed }

// Lost reports whether the connection was abandoned: restoration
// exhausted its retries and degradation was disabled.
func (c *Conn) Lost() bool { return c.lost }

// Network is the multi-router simulation.
type Network struct {
	cfg   Config
	rng   *sim.RNG
	dists *routing.Dists
	ud    *routing.UpDown
	mp    *routing.Multipath
	nodes []*node
	now   int64

	// pool is the fabric's one flit free list: a flit is minted from it at
	// the source host and retired to it by whichever node ejects, drops or
	// purges it.
	pool *flit.Pool

	conns   []*Conn
	beFlows []*beFlow
	// nextFlowID is the next best-effort flow owner handle; IDs start at
	// 1 and are never reused (checkpointed, so restored fabrics keep
	// issuing unique handles).
	nextFlowID FlowID
	events     *sim.Engine // session-level dynamics

	// Durable-event journal (durable.go): every event the control plane
	// schedules through scheduleDurable is mirrored here, keyed by the
	// engine's insertion sequence number, so a checkpoint can serialize
	// the pending-event queue as plain data and a restore can re-insert
	// it in the original FIFO order. faultSchedule is the expanded fault
	// plan durFault events index into; openRetries carries the pending
	// OpenWithRetry state durOpenRetry events resolve against.
	durables      map[uint64]*durableEvent
	faultSchedule []faults.Event
	openRetries   map[int64]*openRetry
	nextOpenID    int64

	// Re-promotion state (promote.go). promoteGen is bumped on every
	// capacity-returning trigger so a stale journaled scan no-ops instead
	// of firing with an outdated backoff position; degradedLive counts
	// sessions currently degraded and not closed, so triggers on the
	// close-heavy path are O(1) when nothing is degraded; promoteScratch
	// is the reusable candidate buffer of the (rare) scan events.
	promoteGen     int64
	degradedLive   int
	promoteScratch []*Conn

	// tenants is the per-tenant admission quota/usage table (see
	// internal/admission). Quotas are runtime state (set through the
	// daemon API), not configuration: they ride the checkpoint payload,
	// not the config hash.
	tenants *admission.TenantTable

	// Per-tenant delivery telemetry (tenantstats.go): dense tenant slots
	// assigned on the serial control path, per-node shards merged at
	// gather time through the metrics snapshot appender.
	tenantSlots map[string]int32
	tenantNames []string

	// Fault-injection runtime: per-directed-link impairments and the
	// session event log.
	impair     map[[2]int]faults.Impairment
	sessionLog []SessionEvent

	// Establishment state: sync is the hold ledger (and EPB search
	// scratch) of the synchronous attempt in progress — Open, OpenBatch,
	// retries, restoration and re-promotion run one at a time on the
	// serial control path and share it; arena holds the session records.
	sync  holds
	arena connArena

	// m is the session-level statistics record (stats.go).
	m Stats

	// Observability layer (observe.go): metric handles + registry, and
	// the sink automatic flight-recorder dumps go to.
	nm         *netMetrics
	flightSink io.Writer

	// Structure-of-arrays datapath state (docs/performance.md,
	// "Structure-of-arrays datapath"). The cross-node staging lanes live
	// in one network-owned flat array indexed node*radix+port; each
	// node's out field is a subslice view into its own segment, so phase
	// code keeps its per-node slice form over contiguous memory.
	wires []wire

	// The wake table (wake.go): per node, the earliest cycle it can have
	// work. Derived state, written between cycles and by settle only.
	// active is this cycle's worklist (ascending node ID); pushed and
	// freed collect, during the commit phase, the receivers of the cycle's
	// lane pushes and the upstream peers of the packet VCs it released,
	// for settle to wake. blockAt bounds each block of wakeAt from below and
	// wakeReads counts the words of both that buildActive read (work ledger).
	wakeAt    []int64
	blockAt   []int64
	wakeReads int64
	active    []*node
	pushed    []int32
	freed     []int32

	// idleSkipped counts cycles Run elided via whole-clock fast-forward
	// (diagnostics only; results are independent of it by construction).
	idleSkipped int64

	// lastPayload is the length of the last EncodeState payload (0 before
	// the first): the next encode's buffer is sized from it.
	lastPayload int

	// CheckInvariants' scratch (invariants.go): sized by its first call, so
	// a fabric that never audits pays nothing, and never serialized.
	claimed *bitvec.Vector
	want    [][2]int
	live    []int
}

// SessionEvent records one connection- or fault-level transition for
// post-mortem analysis of a run.
type SessionEvent struct {
	Cycle      int64
	Kind       string // link-down, link-up, router-down, router-up, conn-broken, conn-restored, conn-degraded, conn-promoted, conn-lost
	Conn       flit.ConnID
	Node, Port int
	Detail     string
}

// SessionEvents returns the fault/connection transition log.
func (n *Network) SessionEvents() []SessionEvent { return n.sessionLog }

func (n *Network) logEvent(e SessionEvent) {
	e.Cycle = n.now
	n.sessionLog = append(n.sessionLog, e)
}

// New builds a network over cfg.Topology.
func New(cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Scheme == nil {
		cfg.Scheme = sched.Biased{}
	}
	n := &Network{
		cfg:         cfg,
		rng:         sim.NewRNG(cfg.Seed),
		dists:       routing.NewDists(cfg.Topology),
		events:      sim.NewEngine(),
		pool:        flit.NewPool(),
		impair:      map[[2]int]faults.Impairment{},
		durables:    map[uint64]*durableEvent{},
		openRetries: map[int64]*openRetry{},
		tenants:     admission.NewTenantTable(),
	}
	n.ud = routing.NewUpDown(cfg.Topology, n.dists)
	n.mp = routing.NewMultipath(cfg.Topology, n.dists, n.ud)
	radix := cfg.radix()
	// A fabric node is the paper's router at the topology's radix plus a
	// host port, under the MMR's own priority switch scheduler.
	core := router.Config{
		Ports:         radix,
		Link:          cfg.Link,
		VCM:           vcm.Config{VirtualChannels: cfg.VCs, Depth: cfg.Depth},
		K:             cfg.K,
		MaxCandidates: cfg.MaxCandidates,
		Scheme:        cfg.Scheme,
		ArbiterIters:  cfg.ArbiterIters,
		Concurrency:   cfg.Concurrency,
		NoIdleSkip:    cfg.NoIdleSkip,
	}
	nNodes := cfg.Topology.Nodes
	// VC storage 128 ports a chunk, rows (≤ 1 kB a port) 1,024: few Opens pay for a chunk.
	store, maps := vcm.NewStore(min(128, nNodes*radix)), routing.NewRows(cfg.VCs, min(1024, nNodes*radix))

	n.wires = make([]wire, nNodes*radix) // every node's lanes, flat (see the field)
	for id := 0; id < nNodes; id++ {
		nd := &node{
			id:        id,
			cmap:      routing.NewChannelMapIn(maps, radix),
			rng:       sim.NewStreamRNG(cfg.Seed, uint64(id)),
			inboundAt: flow.Never,
			stuck:     bitvec.New(radix * cfg.VCs),
			grantVC:   make([]int, radix),
			peerIn:    make([]int32, radix),
		}
		if err := nd.Core.Init(&core, nd.rng, store); err != nil {
			return nil, err
		}
		nd.cal.Invalidate()
		nd.pcal.Invalidate()
		base := id * radix
		nd.out = n.wires[base : base+radix : base+radix]
		n.nodes = append(n.nodes, nd)
	}

	// Precompute each node's wired inbound edges and output peers. Raw
	// wiring never changes after construction (faults only flip link/router
	// live state), so these lists replace per-cycle topology lookups in
	// delivery and the wake table's push lists.
	for _, nd := range n.nodes {
		nd.outPeer = make([]int32, radix)
		nd.outPeer[cfg.hostPort()] = -1
		for q := 0; q < cfg.Topology.Ports; q++ {
			x := cfg.Topology.Wired(nd.id, q)
			if nd.outPeer[q] = int32(x); x < 0 {
				continue
			}
			xp := cfg.Topology.WiredPeer(nd.id, q)
			n.nodes[x].peerIn[xp] = int32(len(nd.in))
			nd.in = append(nd.in, inEdge{
				lane:     int32(x*radix + xp),
				port:     int32(q),
				peer:     int32(x),
				peerPort: int32(xp),
			})
		}
		nd.inbound.Init(len(nd.in))
		nd.inbound.Fill()
	}
	// Every node starts due at cycle 0 (the zero wake table) with a stale
	// calendar and a full inbound vector, so a fabric — fresh or just restored
	// from a checkpoint — derives its gating state in its first cycle.
	n.wakeAt = make([]int64, len(n.nodes))
	n.blockAt = make([]int64, (len(n.nodes)+wakeBlock-1)/wakeBlock)
	n.initMetrics()
	return n, nil
}

// assignTrackerSlot gives a newly established connection its slot in the
// destination node's jitter tracker. Only the ejecting node ever records
// a stream connection's flits, so per-conn accumulators live solely at
// the destination, and slots are numbered per destination in
// establishment order: a node's tracker arrays scale with the sessions
// that actually terminate there, not the global session count —
// essential once one fabric carries ~10⁶ sessions across thousands of
// routers. Restoration replays connections in ID order, which reproduces
// the per-dst assignment order and therefore the same slots.
func (n *Network) assignTrackerSlot(c *Conn) {
	c.tenantSlot = n.tenantSlotFor(c.Tenant)
	if c.dstSlot >= 0 {
		return // restoration revives the conn; its slot is permanent
	}
	tr := &n.nodes[c.Dst].stats.sink.Tracker
	c.dstSlot = int32(tr.NumConns())
	tr.Grow(tr.NumConns() + 1)
}

// terminal reports a connection that can never inject again: gracefully
// closed, degraded to a best-effort flow, or lost. Broken connections
// awaiting restoration are not terminal — restoreAttempt revives them in
// place, relying on their srcConns membership.
func (c *Conn) terminal() bool { return c.closed || c.lost || c.Degraded }

// dropSrcConn removes a terminal connection from its source node's
// injector list, preserving the relative order of the remaining entries
// (injection iterates this list, so its live order is part of
// determinism). The global conns registry stays append-only — IDs index
// into it — but the per-node scan lists must track live sessions only,
// or every cycle pays for the full session history.
func (n *Network) dropSrcConn(c *Conn) {
	n.touch(c.Src)
	nd := n.nodes[c.Src]
	if i := slices.Index(nd.srcConns, c); i >= 0 {
		nd.srcConns = slices.Delete(nd.srcConns, i, i+1)
	}
}

// insertSrcConn re-adds a revived (promoted) connection to its source
// node's injector list at its ID-sorted position. Live lists are always
// ID-ascending — Opens append in ID order and dropSrcConn preserves
// relative order — and checkpoint restore rebuilds them by iterating
// conns in ID order, so a plain append here would make a promoted
// fabric inject in a different order than its restored twin and break
// bit-exactness.
func (n *Network) insertSrcConn(c *Conn) {
	n.touch(c.Src)
	nd := n.nodes[c.Src]
	i := len(nd.srcConns)
	for i > 0 && nd.srcConns[i-1].ID > c.ID {
		i--
	}
	nd.srcConns = slices.Insert(nd.srcConns, i, c)
}

// Tenants exposes the per-tenant admission quota table. Mutate it only
// from the serial control path (between steps, or on the daemon's
// fabric goroutine).
func (n *Network) Tenants() *admission.TenantTable { return n.tenants }

// removeBEFlowAt unregisters beFlows[i]: queued NI packets return to the
// pool, and the flow leaves both the global registry and its source
// node's injector list.
func (n *Network) removeBEFlowAt(i int) {
	bf := n.beFlows[i]
	n.touch(bf.src)
	for bf.ni.Queue.Len() > 0 {
		n.pool.Put(bf.ni.Queue.Pop())
	}
	n.beFlows = slices.Delete(n.beFlows, i, i+1)
	nd := n.nodes[bf.src]
	if j := slices.Index(nd.beSrc, bf); j >= 0 {
		nd.beSrc = slices.Delete(nd.beSrc, j, j+1)
	}
}

// dropBEFlow retires the best-effort fallback flow owned by a degraded
// connection: the generator stops and packets still queued at the source
// interface are counted lost (flits already in the fabric drain
// normally — best-effort packets hold no reserved resources).
func (n *Network) dropBEFlow(id flit.ConnID) {
	for i, bf := range n.beFlows {
		if bf.conn == id {
			n.m.FaultFlitsLost += int64(bf.ni.Queue.Len())
			n.removeBEFlowAt(i)
			return
		}
	}
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Now returns the current flit cycle.
func (n *Network) Now() int64 { return n.now }

// Nodes returns the number of routers.
func (n *Network) Nodes() int { return len(n.nodes) }

// Schedule runs fn when the network clock reaches the given absolute
// cycle — the convenient form of session-level events (connection
// arrivals, holding-time expirations).
func (n *Network) Schedule(cycle int64, fn func()) {
	n.events.At(sim.Time(cycle), sim.EventFunc(func(sim.Time) { fn() }))
}

// Stats returns a snapshot of the network statistics: the session-level
// counters plus every node shard merged in ascending node order.
func (n *Network) Stats() *Stats { return n.snapshotStats() }

// Conns returns all connections ever opened (including closed ones).
func (n *Network) Conns() []*Conn { return n.conns }

// FreeVCsAt reports the unreserved virtual channels on a node's input
// port — the resource a probe checks before advancing (§3.5).
func (n *Network) FreeVCsAt(node, port int) int {
	return n.nodes[node].Mems[port].FreeVCs()
}

// GuaranteedLoadAt reports the guaranteed-bandwidth fraction allocated on
// a node's output port.
func (n *Network) GuaranteedLoadAt(node, port int) float64 {
	return n.nodes[node].Alloc[port].GuaranteedLoad()
}
