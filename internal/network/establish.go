package network

import (
	"fmt"

	"mmr/internal/admission"
	"mmr/internal/flit"
	"mmr/internal/router"
	"mmr/internal/routing"
	"mmr/internal/traffic"
	"mmr/internal/vcm"
)

// establish.go is the admission side of connection establishment: the
// ways in (Open, OpenWithRetry, OpenBatch and OpenRequest, which they are
// forms of), the one pre-admission check every request passes — the
// tenant's quota and the two refusals the live registers already prove —
// the one registration every new session passes, the arenas its records
// are carved from, and teardown. A batch is the serial loop, so there is
// one establishment path. The reservation side — the hold ledger and the
// EPB search — is probe.go.

// OpenReq is one connection request.
type OpenReq struct {
	Src, Dst int
	Spec     traffic.ConnSpec
	// Tenant names the admission-quota owner of the session ("" is the
	// default tenant, unlimited unless a quota is configured for "").
	Tenant string
}

// Form is how OpenRequest establishes a request.
type Form uint8

const (
	// FormOnce is a single synchronous attempt, reported before
	// OpenRequest returns.
	FormOnce Form = iota
	// FormRetry attempts now and, on failure, re-searches with jittered
	// exponential backoff over event time — up to cfg.Fault.MaxRetries
	// more attempts, so teardowns, restorations and link repairs in
	// between can free what the first search could not find — before
	// reporting the last error. Pending retries live in the durable-event
	// journal (durable.go) and survive a checkpoint; the callback does
	// not: a restored fabric replays them and reports to no one.
	FormRetry
)

// OpenRequest establishes a connection from the host at req.Src to the
// host at req.Dst using EPB (§3.5): the probe searches minimal paths,
// reserving at each hop an input virtual channel on the next router and
// bandwidth on the output link (§4.2), backtracking and releasing when a
// hop has no resources. On success the channel mappings and per-VC
// scheduling state are installed at every router and the source begins
// injecting. The session and its guaranteed demand are charged against
// req.Tenant's admission quota (internal/admission.TenantTable) before
// any search runs, so an over-budget tenant is refused without spending
// fabric work, and the charge follows the session through degradation
// (bandwidth refunded, session kept) and re-promotion (re-charged).
//
// The returned error only reports a malformed request (done is then not
// called); the outcome of a well-formed one goes to done, which may be
// nil. Open, OpenWithRetry and OpenBatch are this call with the default
// tenant, or for many requests in order.
func (n *Network) OpenRequest(req OpenReq, form Form, done func(*Conn, error)) error {
	if err := n.checkEndpoints(req); err != nil {
		return err
	}
	if done == nil {
		done = func(*Conn, error) {}
	}
	switch form {
	case FormOnce:
		done(n.open(req))
	case FormRetry:
		n.openAttempt(-1, &openRetry{req: req, done: done})
	default:
		return fmt.Errorf("network: unknown establishment form %d", form)
	}
	return nil
}

// Open is OpenRequest(FormOnce) for the default tenant.
func (n *Network) Open(src, dst int, spec traffic.ConnSpec) (*Conn, error) {
	return n.open(OpenReq{Src: src, Dst: dst, Spec: spec})
}

// OpenWithRetry is OpenRequest(FormRetry) for the default tenant.
func (n *Network) OpenWithRetry(src, dst int, spec traffic.ConnSpec, done func(*Conn, error)) error {
	return n.OpenRequest(OpenReq{Src: src, Dst: dst, Spec: spec}, FormRetry, done)
}

// OpenResult reports one request's outcome: the established connection,
// or the error that refused it.
type OpenResult struct {
	Conn *Conn
	Err  error
}

// OpenBatch is OpenRequest(FormOnce) for every request in order: the same
// outcomes, fabric bytes and RNG position as opening them one at a time,
// because it is that loop.
func (n *Network) OpenBatch(reqs []OpenReq) []OpenResult {
	out := make([]OpenResult, len(reqs))
	for i, req := range reqs {
		out[i].Conn, out[i].Err = n.open(req)
	}
	return out
}

// open is one synchronous establishment attempt: pre-admit, reserve a
// path on the network's own ledger, register.
func (n *Network) open(req OpenReq) (*Conn, error) {
	d, err := n.preAdmit(req)
	if err != nil {
		return nil, err
	}
	l := &n.sync
	l.begin(n, req, d)
	if err = n.reservePath(l); err != nil {
		n.m.SetupRejected++
		return nil, err
	}
	return n.register(l), nil
}

// preAdmit is the check every request passes before it may touch the
// fabric: well-formed endpoints, then — counted as a set-up attempt, and
// as a rejection if refused — the tenant's quota (no fabric state read)
// and the early refusal.
func (n *Network) preAdmit(req OpenReq) (router.Demand, error) {
	if err := n.checkEndpoints(req); err != nil {
		return router.Demand{}, err
	}
	n.m.SetupAttempts++
	d := n.demandFor(req.Spec)
	var err error
	if !n.tenants.CanAdmit(req.Tenant, d.Alloc) {
		err = tenantQuotaError(req.Tenant, n.tenants)
	} else {
		err = n.refuseEarly(req, d)
	}
	if err != nil {
		n.m.SetupRejected++
	}
	return d, err
}

// refuseEarly returns the refusal the live registers already prove, in
// O(1) and before any RNG draw or search: no free VC on the source's host
// input port, where enter would find none, or a demand above the
// destination's ejection headroom, which no path changes, so eject would
// refuse it. Each returns enter's or eject's own error; neither turns down
// a request the reservation could place.
func (n *Network) refuseEarly(req OpenReq, d router.Demand) error {
	hp := n.cfg.hostPort()
	switch {
	case n.nodes[req.Src].Mems[hp].FreeVCs() == 0:
		return errNoEntryVC(req.Src)
	case d.Alloc > n.nodes[req.Dst].Alloc[hp].Headroom():
		return errNoEjection(req.Dst, req.Spec.Rate)
	}
	return nil
}

// register turns a complete reservation into a session: the tenant is
// charged, the path installed, the connection recorded and counted. The
// charge cannot be refused: preAdmit checked the quota and nothing since
// has charged the tenant.
func (n *Network) register(l *holds) *Conn {
	req := l.req
	n.tenants.AdmitSession(req.Tenant, l.d.Alloc)
	conn := n.arena.conn()
	*conn = Conn{ID: flit.ConnID(len(n.conns)), Src: req.Src, Dst: req.Dst, Tenant: req.Tenant, Spec: req.Spec, dstSlot: -1}
	n.installPath(conn, l)
	n.conns = append(n.conns, conn)
	n.nodes[req.Src].srcConns = append(n.nodes[req.Src].srcConns, conn)
	n.assignTrackerSlot(conn)
	n.m.SetupAccepted++
	n.m.SetupLatency.Add(float64(conn.SetupTime))
	n.m.SetupBacktracks.Add(float64(conn.Backtracks))
	return conn
}

// connArena is where sessions' records live. Chunks are never moved or
// freed while any of their connections is referenced, so pointers into a
// chunk are stable for the life of the fabric.
type connArena struct {
	chunk []Conn
	hops  []routing.PathHop
	vcs   []routing.VCRef
	nodes []int
}

// conn carves one Conn record from the arena, 1024 to a chunk.
func (a *connArena) conn() *Conn {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]Conn, 0, 1024)
	}
	a.chunk = a.chunk[:len(a.chunk)+1]
	return &a.chunk[len(a.chunk)-1]
}

// refit returns s emptied if it has room for need elements, else a
// zero-length, exact-capacity slice carved from *arena (a fresh chunk
// when the current one is exhausted). installPath appends exactly need,
// so a new connection's records land in the arena with no allocation of
// their own.
func refit[T any](s []T, arena *[]T, need int) []T {
	if cap(s) >= need {
		return s[:0]
	}
	if cap(*arena)-len(*arena) < need {
		*arena = make([]T, 0, max(4096, need))
	}
	base := len(*arena)
	*arena = (*arena)[:base+need]
	return (*arena)[base : base : base+need]
}

// establish reserves a path for an existing connection and installs it:
// the engine of fault restoration and re-promotion, whose sessions are
// already registered.
func (n *Network) establish(conn *Conn) error {
	l := &n.sync
	l.begin(n, OpenReq{Src: conn.Src, Dst: conn.Dst, Spec: conn.Spec, Tenant: conn.Tenant}, n.demandFor(conn.Spec))
	if err := n.reservePath(l); err != nil {
		return err
	}
	n.installPath(conn, l)
	return nil
}

// tenantQuotaError renders the rejection for a tenant over its admission
// quota, naming the tenant and its current holdings.
func tenantQuotaError(tenant string, t *admission.TenantTable) error {
	u := t.Usage(tenant)
	return fmt.Errorf("network: tenant %q over admission quota (%d sessions, %d guaranteed cycles held)",
		tenant, u.Sessions, u.Guaranteed)
}

// retryBackoff returns the wait before re-search attempt k (0-based):
// RetryBackoff × 2^k plus up to 50% jitter, so colliding retries from
// simultaneously broken connections decorrelate.
func (n *Network) retryBackoff(attempt int) int64 {
	base := n.cfg.Fault.RetryBackoff
	if base < 1 {
		base = 1
	}
	if attempt > 30 {
		attempt = 30
	}
	d := base << uint(attempt)
	return d + int64(n.rng.Float64()*float64(d)*0.5)
}

func (n *Network) checkEndpoints(req OpenReq) error {
	if req.Src < 0 || req.Src >= len(n.nodes) || req.Dst < 0 || req.Dst >= len(n.nodes) {
		return errBadEndpoints(req.Src, req.Dst)
	}
	if req.Src == req.Dst {
		return fmt.Errorf("network: source and destination host on the same router")
	}
	if !req.Spec.Class.IsStream() {
		return fmt.Errorf("network: stream classes only, got %v", req.Spec.Class)
	}
	return nil
}

// installPath installs a connection along the resources its ledger
// holds: per-router VC scheduling state (replacing the transient holds),
// channel mappings (whose reverse side routes credits home), and the conn's
// VCs/Path/Nodes records, carved from the arenas at their exact size
// unless the conn already owns room (a restored session re-using its
// old records). The entry VC sits at (conn.Src, hostPort); hop i carries
// the output taken from the i-th router and the VC held on the next
// router's input. Afterwards the holds are the connection's and the
// ledger is empty.
func (n *Network) installPath(conn *Conn, l *holds) {
	d, entryVC, hops := l.d, l.entryVC, l.hops
	conn.Backtracks, conn.SetupTime = l.backtracks, l.setupTime
	hp := n.cfg.hostPort()
	install := func(nodeID, inPort, vc, outPort int) {
		mem := n.nodes[nodeID].Mems[inPort]
		mem.Release(vc) // the transient hold
		mem.Reserve(vc, vcm.VCState{Conn: conn.ID, Class: conn.Spec.Class, BasePriority: conn.Spec.Priority, Output: outPort})
		n.nodes[nodeID].Retune(inPort, vc, d)
	}

	conn.Path = refit(conn.Path, &n.arena.hops, len(hops))
	conn.VCs = refit(conn.VCs, &n.arena.vcs, len(hops)+1)
	conn.Nodes = refit(conn.Nodes, &n.arena.nodes, len(hops)+1)
	conn.VCs = append(conn.VCs, routing.VCRef{Port: hp, VC: entryVC})
	conn.Nodes = append(conn.Nodes, conn.Src)
	inPort, inVC := hp, entryVC
	cur := conn.Src
	for _, h := range hops {
		nb := n.cfg.Topology.Wired(h.node, h.port)
		pp := n.cfg.Topology.WiredPeer(h.node, h.port)
		install(cur, inPort, inVC, h.port)
		n.nodes[cur].cmap.Map(routing.VCRef{Port: inPort, VC: inVC}, routing.VCRef{Port: h.port, VC: h.vc})
		conn.Path = append(conn.Path, routing.PathHop{Node: h.node, Port: h.port})
		cur, inPort, inVC = nb, pp, h.vc
		conn.VCs = append(conn.VCs, routing.VCRef{Port: inPort, VC: inVC})
		conn.Nodes = append(conn.Nodes, cur)
	}
	// Final router: eject to the host port.
	install(cur, inPort, inVC, hp)

	if conn.ni.Source == nil {
		switch conn.Spec.Class {
		case flit.ClassVBR:
			// The VBR generator draws randomness at injection time, in
			// the source node's commit phase: bind it to that node's RNG
			// stream so the draw order is per-node and does not depend on
			// which other nodes ran the cycle.
			conn.ni.Source = traffic.NewVBRSource(n.nodes[conn.Src].rng, n.cfg.Link, conn.Spec.Rate, conn.Spec.PeakRate, traffic.DefaultGoP())
		default:
			// CBR draws only its phase, here on the control path.
			conn.ni.Source = traffic.NewCBRSource(n.cfg.Link, conn.Spec.Rate, n.rng.Float64())
		}
	}
	conn.open = true
	conn.closed = false
	conn.broken = false
	// Ticking (re)starts at the current cycle. Critically, after a fault
	// restoration the broken period is not replayed into the source —
	// matching the ungated engine, which never ticks a broken connection.
	conn.ni.Start(n.now)
	n.touch(conn.Src)
	l.settle()
}

// Close stops a connection's injection and releases every per-hop
// resource. Buffers along the path must have drained; use DrainAndClose
// to run the network until they have. Closing an already closed (or
// fault-broken) connection returns an error and releases nothing.
func (n *Network) Close(conn *Conn) error {
	if conn.closed {
		return fmt.Errorf("network: connection %d already closed", conn.ID)
	}
	if conn.Degraded {
		// The guaranteed path was torn down when the fault broke the
		// connection; closing the session now means retiring its
		// best-effort fallback flow so a long-lived fabric does not
		// accumulate immortal generators across churn. (The degraded and
		// broken branches are order-independent since abandon normalized
		// the flags: Degraded implies !broken.)
		n.dropBEFlow(conn.ID)
		conn.closed = true
		n.degradedLive--
		n.m.Closed++
		n.tenants.ReleaseSession(conn.Tenant)
		return nil
	}
	if conn.broken {
		return fmt.Errorf("network: connection %d is fault-broken; its resources are already released", conn.ID)
	}
	switch hop, what := n.undrained(conn); {
	case hop >= 0:
		return fmt.Errorf("network: connection %d %s at node %d (hop %d)", conn.ID, what, conn.Nodes[hop], hop)
	case what != "":
		return fmt.Errorf("network: connection %d still has %d flits at the source interface", conn.ID, conn.ni.Queue.Len())
	}
	n.stopSource(conn)
	conn.closed = true
	conn.ni.Source = nil
	n.releasePath(conn)
	n.dropSrcConn(conn)
	n.m.Closed++
	n.tenants.ReleaseAll(conn.Tenant, n.demandFor(conn.Spec).Alloc)
	// The close freed guaranteed cycles along the whole path — capacity a
	// degraded session may be waiting on.
	n.schedulePromotion()
	return nil
}

// undrained is the test Close gates on and DrainAndClose polls, so it
// formats nothing. It names what conn still holds at the first hop that
// holds anything — flits buffered, or credits not all home (a full shadow
// proves none is still in flight, so reusing the VC cannot corrupt flow
// control) — else at the source interface (hop -1), else "".
func (n *Network) undrained(conn *Conn) (hop int, what string) {
	for i, ref := range conn.VCs {
		x := n.nodes[conn.Nodes[i]]
		if x.Mems[ref.Port].Len(ref.VC) != 0 {
			return i, "still has flits buffered"
		}
		if x.Credits[ref.Port].Available(ref.VC) != n.cfg.Depth {
			return i, "has credits in flight"
		}
	}
	if conn.ni.Queue.Len() != 0 {
		return -1, "still has flits at the source interface"
	}
	return -1, ""
}

// releasePath returns every resource an installed connection holds: VC
// reservations, channel mappings and per-hop output bandwidth (path hops
// plus destination ejection). VC buffers must already be empty. It
// deliberately never consults link up/down state, so teardown works
// identically on healthy and faulted fabrics.
func (n *Network) releasePath(conn *Conn) {
	d := n.demandFor(conn.Spec)
	for i, ref := range conn.VCs {
		x := n.nodes[conn.Nodes[i]]
		x.Mems[ref.Port].Release(ref.VC)
		n.vcFreed(x.id, ref.Port)
		x.cmap.Unmap(routing.VCRef{Port: ref.Port, VC: ref.VC})
		if i < len(conn.Path) {
			hop := conn.Path[i]
			n.nodes[hop.Node].ReleaseAt(hop.Port, conn.Spec, d)
		} else {
			x.ReleaseAt(n.cfg.hostPort(), conn.Spec, d)
		}
	}
}

// DrainAndClose stops injection, steps the network until the connection's
// buffers empty (bounded by limit cycles), then closes it.
func (n *Network) DrainAndClose(conn *Conn, limit int64) error {
	n.stopSource(conn) // no new flits; queued ones still flow
	for i := int64(0); i < limit; i++ {
		if conn.closed {
			// A fault tore the connection down mid-drain (or it was
			// already closed): nothing left to release.
			return fmt.Errorf("network: connection %d already closed", conn.ID)
		}
		if _, what := n.undrained(conn); conn.Degraded || !conn.broken && what == "" {
			break // Close succeeds now
		}
		n.Step()
	}
	return n.Close(conn)
}
