package network

import (
	"errors"
	"fmt"
	"strconv"

	"mmr/internal/flit"
	"mmr/internal/router"
	"mmr/internal/routing"
	"mmr/internal/traffic"
	"mmr/internal/vcm"
)

// probe.go is the reservation side of connection establishment (§3.5,
// §4.2): the hold ledger every path reservation goes through and the two
// walks over it (a fixed Valiant/UGAL candidate path, the EPB search).
// establish.go is the admission side.

// demandFor is spec's reservation at every hop: the nodes' Cores share one
// geometry, so any of them converts it.
func (n *Network) demandFor(spec traffic.ConnSpec) router.Demand { return n.nodes[0].DemandOf(spec) }

// GuaranteedCyclesFor returns the guaranteed cycles/round a session of
// the given spec is charged — the unit tenant quotas are denominated
// in. The daemon uses it to convert Mbps quota requests into
// allocation units.
func (n *Network) GuaranteedCyclesFor(spec traffic.ConnSpec) int {
	return n.demandFor(spec).Alloc
}

// searchHook, when non-nil, runs inside every per-hop reservation. Tests
// use it to inject panics mid-walk and verify the release-on-panic path;
// it is never set in production code.
var searchHook func()

// errCandidateRefused: a fixed candidate path could not reserve. The
// EPB search runs next, so nobody reads more than its existence.
var errCandidateRefused = errors.New("network: candidate path refused")

// probeHop is one reserved hop: an output taken from a router, and the
// input VC held at the router on the other end of that link.
type probeHop struct {
	node, port int // output taken from node
	vc         int // VC reserved at the neighbor's input
}

// holds is the hold ledger of the establishment in progress: the entry
// VC on the source router's host port, a stack of reserved hops, and the
// ejection bandwidth at the destination. Both reservation shapes — the
// fixed candidate path and the EPB search — take and give back fabric
// resources through it and nowhere else, so what an abandoned attempt
// must release is always exactly what the ledger lists. VCs are held with
// a transient state (no connection) until installPath replaces it; the
// attempt installs or releases every hold before it returns.
//
// The hops are a stack because EPB over minimal paths only ever undoes
// the hop that led to the node it is backtracking off: the path is
// simple (every hop moves strictly closer), so the newest hold is the one
// released, and the surviving stack is the final path in hop order.
type holds struct {
	n   *Network
	req OpenReq // endpoints and spec the path is for
	d   router.Demand

	entryVC  int // -1: not held
	hops     []probeHop
	ejecting bool // ejection bandwidth held on dst's host port

	// The walk that filled the ledger: EPB history stores, then what the
	// session records of it.
	walk       routing.SearchScratch
	backtracks int
	setupTime  int64
}

// begin empties the ledger for a new establishment.
func (l *holds) begin(n *Network, req OpenReq, d router.Demand) {
	l.n, l.req, l.d = n, req, d
	l.settle()
}

// settle forgets the holds without releasing them: they now belong to an
// installed connection (or there were none).
func (l *holds) settle() {
	l.entryVC, l.hops, l.ejecting = -1, l.hops[:0], false
}

// transient is the state of a VC held by the establishment in progress.
func (l *holds) transient() vcm.VCState {
	return vcm.VCState{Conn: flit.InvalidConn, Class: l.req.Spec.Class, Output: -1}
}

// enter takes the entry VC on the source router's host input port.
func (l *holds) enter() error {
	n := l.n
	mem := n.nodes[l.req.Src].Mems[n.cfg.hostPort()]
	vc := mem.PickFree(n.rng)
	if vc < 0 {
		return errNoEntryVC(l.req.Src)
	}
	mem.Reserve(vc, l.transient())
	l.entryVC = vc
	return nil
}

// errNoEntryVC and errNoEjection are enter's and eject's refusals, which
// refuseEarly also returns before any search. They are built without fmt:
// a churned fabric refuses tens of thousands of requests this way.
func errNoEntryVC(src int) error {
	return errors.New("network: no free VC on host port of node " + strconv.Itoa(src))
}

func errNoEjection(dst int, rate traffic.Rate) error {
	return errors.New("network: destination host port of node " + strconv.Itoa(dst) + " cannot admit " + rate.String())
}

// reserve takes one hop — an input VC on the router across (node, port)
// and bandwidth on that output link (§4.2) — or reports that the link is
// down or either resource is short.
func (l *holds) reserve(node, port int) bool {
	if searchHook != nil {
		searchHook()
	}
	n := l.n
	nb := n.cfg.Topology.Neighbor(node, port)
	if nb < 0 {
		return false
	}
	mem := n.nodes[nb].Mems[n.cfg.Topology.PeerPort(node, port)]
	vc := mem.PickFree(n.rng)
	if vc < 0 || !n.nodes[node].AdmitAt(port, l.req.Spec, l.d) {
		return false
	}
	mem.Reserve(vc, l.transient())
	l.hops = append(l.hops, probeHop{node: node, port: port, vc: vc})
	return true
}

// release gives back the newest hop, which must be (node, port). It goes
// through the raw wiring: the link may have failed since the hop was
// taken, and the reservation must come back regardless.
func (l *holds) release(node, port int) {
	top := len(l.hops) - 1
	if top < 0 || l.hops[top].node != node || l.hops[top].port != port {
		panic(fmt.Sprintf("network: release of hop %d.%d, which is not the newest hold", node, port))
	}
	n, tp := l.n, l.n.cfg.Topology
	n.nodes[node].ReleaseAt(port, l.req.Spec, l.d)
	n.nodes[tp.Wired(node, port)].Mems[tp.WiredPeer(node, port)].Release(l.hops[top].vc)
	n.vcFreed(tp.Wired(node, port), tp.WiredPeer(node, port))
	l.hops = l.hops[:top]
}

// eject takes the ejection bandwidth on the destination's host port.
func (l *holds) eject() error {
	n := l.n
	if !n.nodes[l.req.Dst].AdmitAt(n.cfg.hostPort(), l.req.Spec, l.d) {
		return errNoEjection(l.req.Dst, l.req.Spec.Rate)
	}
	l.ejecting = true
	return nil
}

// unwind releases everything the ledger lists.
func (l *holds) unwind() {
	n, hp := l.n, l.n.cfg.hostPort()
	if l.ejecting {
		n.nodes[l.req.Dst].ReleaseAt(hp, l.req.Spec, l.d)
	}
	for i := len(l.hops) - 1; i >= 0; i-- {
		l.release(l.hops[i].node, l.hops[i].port)
	}
	if l.entryVC >= 0 {
		n.nodes[l.req.Src].Mems[hp].Release(l.entryVC)
	}
	l.settle()
}

// try runs one stretch of establishment work. If it fails — or panics —
// every hold is released before try returns (or the panic continues), so
// a refused or crashed attempt leaves the fabric as it found it. This is
// the only release-on-failure path there is.
func (l *holds) try(work func() error) error {
	ok := false
	defer func() {
		if !ok {
			l.unwind()
		}
	}()
	err := work()
	ok = err == nil
	return err
}

// along reserves the fixed port path of a Valiant/UGAL candidate: no
// backtracking, any hop without resources fails the attempt. The probe
// walks the path forward and the ack retraces it (§4.2).
func (l *holds) along(ports []int) error {
	if err := l.enter(); err != nil {
		return err
	}
	cur := l.req.Src
	for _, p := range ports {
		if !l.reserve(cur, p) {
			return errCandidateRefused
		}
		cur = l.n.cfg.Topology.Neighbor(cur, p)
	}
	if cur != l.req.Dst {
		return errCandidateRefused
	}
	l.backtracks, l.setupTime = 0, l.n.cfg.HopLatency*int64(2*len(l.hops))
	return l.eject()
}

// search runs the synchronous EPB search: every minimal path is tried
// before it gives up (§3.5). The probe walks Visited hops forward and
// Backtracks back, then the ack retraces the final path.
func (l *holds) search() error {
	if err := l.enter(); err != nil {
		return err
	}
	n := l.n
	sr, err := routing.SearchInto(n.cfg.Topology, n.dists, l.req.Src, l.req.Dst, l.reserve, l.release, &l.walk)
	if err != nil {
		return err
	}
	l.backtracks, l.setupTime = sr.Backtracks, n.cfg.HopLatency*int64(sr.Visited+sr.Backtracks+len(sr.Path))
	return l.eject()
}

// reservePath fills the ledger with a complete path under the configured
// route mode. RouteMinimal is the EPB search; the multipath modes first
// try one Valiant/UGAL candidate (UGAL weighs candidates by first-hop
// guaranteed load) and fall back to the search when it cannot reserve —
// the candidate spreads load, the fallback keeps EPB's completeness (if
// any minimal path has resources, establishment succeeds).
func (n *Network) reservePath(l *holds) error {
	if n.cfg.Route != routing.RouteMinimal {
		ports := n.mp.Choose(n.cfg.Route, l.req.Src, l.req.Dst, n.rng, n.GuaranteedLoadAt)
		if ports != nil && l.try(func() error { return l.along(ports) }) == nil {
			return nil
		}
	}
	return l.try(l.search)
}
