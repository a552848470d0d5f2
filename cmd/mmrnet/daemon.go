// Daemon mode: -serve turns mmrnet from a batch simulator into a
// long-lived fabric process. A single goroutine owns the network and
// alternates between draining a bounded control queue and advancing the
// simulation clock; HTTP handlers never touch the fabric directly, they
// submit closures over the queue and wait on a buffered reply channel
// with a timeout.
//
// Robustness behavior (see docs/operations.md):
//
//   - Admission failures on /api/open go through OpenWithRetry's
//     journaled backoff; when the budget is exhausted the request is
//     degraded to a best-effort flow before being refused outright.
//   - When the control queue runs deep, new guaranteed-bandwidth
//     requests are shed straight to best-effort; when it is full the
//     handler answers 503 without blocking the fabric.
//   - With -checkpoint the daemon writes an atomic snapshot every
//     -checkpoint-interval cycles, and -restore resumes a fabric from
//     the last snapshot, bit-identical to the process that wrote it.
//   - Requests may name a tenant; /api/tenant installs per-tenant
//     admission quotas that establishment, shedding and re-promotion
//     all settle against.
//   - With -pace the clock advances in lock-step with wall time (one
//     flit cycle per -pace of real time; 103ns matches §5's router),
//     instead of free-running a slice per tick.
//   - SIGTERM/SIGINT drain gracefully: the listener closes, queued
//     control work completes, pending open retries get a grace window,
//     and a final checkpoint plus flight-recorder flush land on disk
//     before the process exits 0.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"mmr/internal/admission"
	"mmr/internal/flit"
	"mmr/internal/metrics"
	"mmr/internal/network"
	"mmr/internal/sim"
	"mmr/internal/traffic"
)

const (
	// daemonSlice is how many cycles the fabric advances per control-loop
	// iteration: small enough that a queued request waits at most a few
	// hundred cycles, large enough that the loop is not all overhead.
	daemonSlice = 512
	// daemonPace bounds how fast the clock free-runs while the control
	// queue is empty (one slice per tick; requests wake the loop sooner).
	daemonPace = time.Millisecond
	// ctlQueueDepth bounds the control queue. At half depth new open
	// requests are shed to best-effort; at full depth they are refused.
	ctlQueueDepth = 256
	// apiTimeout bounds how long a handler waits for the fabric to answer
	// before giving up with 504.
	apiTimeout = 10 * time.Second
	// drainGrace is the cycle budget a graceful shutdown runs after the
	// listener closes, so journaled open retries resolve before the final
	// checkpoint. Unresolved ones survive in the checkpoint's journal.
	drainGrace = 4096
	// publishEvery throttles metrics snapshots to one per this many
	// control-loop iterations.
	publishEvery = 16
	// quiesceBudget bounds how many cycles a snapshot may run the fabric
	// forward to let events scheduled outside the durable journal fire.
	// Checkpoints refuse to encode such events (their closures cannot be
	// serialized), so a snapshot steps past them first.
	quiesceBudget = 1 << 16
	// paceBurst caps how many cycles a paced loop iteration may advance
	// at once to catch up with wall time (after a stall or a large
	// -pace deficit), so control requests never wait behind an unbounded
	// catch-up run.
	paceBurst = 1 << 16
)

// ctlResp is a control request's answer: a JSON-marshalable value or an
// error classified by the handler into an HTTP status.
type ctlResp struct {
	v   any
	err error
}

type daemon struct {
	o         simOpts
	out, diag io.Writer

	ctl     chan func(n *network.Network)
	msrv    *metrics.Server
	httpSrv *http.Server

	// Loop-goroutine state (handlers read it only via ctl closures) —
	// except shedCount, which handler goroutines bump concurrently.
	lastCkpt  int64
	pubCount  int
	shedCount atomic.Int64
}

// runDaemon builds (or restores) the fabric and serves the control API
// until a signal arrives on sigc. It returns nil on a clean drain.
func runDaemon(o simOpts, out, diag io.Writer, sigc <-chan os.Signal) error {
	tp, err := buildTopology(o, sim.NewRNG(o.seed))
	if err != nil {
		return err
	}
	cfg := buildConfig(o, tp)
	var n *network.Network
	restored := ""
	if o.restore {
		if n, err = network.RestoreCheckpoint(cfg, o.checkpoint); err != nil {
			return fmt.Errorf("restore %s: %w", o.checkpoint, err)
		}
		restored = ", restored from checkpoint"
	} else if n, err = network.New(cfg); err != nil {
		return err
	}
	if o.flightDump {
		n.SetFlightSink(diag)
	}

	d := &daemon{
		o: o, out: out, diag: diag,
		ctl:      make(chan func(*network.Network), ctlQueueDepth),
		msrv:     metrics.NewServer(),
		lastCkpt: n.Now(),
	}
	ln, err := net.Listen("tcp", o.serveAddr)
	if err != nil {
		return err
	}
	d.httpSrv = &http.Server{Handler: d.handler(), ReadHeaderTimeout: 5 * time.Second}
	go d.httpSrv.Serve(ln)
	defer d.httpSrv.Close()
	fmt.Fprintf(diag, "mmrnet: daemon serving the control API on http://%s (fabric at cycle %d%s)\n",
		ln.Addr(), n.Now(), restored)
	if o.afterServe != nil {
		o.afterServe(ln.Addr().String())
	}

	// With -pace the clock is slaved to wall time: cycle targets are
	// computed from the loop's start instant (not incrementally), so
	// rounding never accumulates drift. Free-running mode advances one
	// slice per iteration as before.
	pace := time.NewTicker(daemonPace)
	defer pace.Stop()
	start, startCycle := time.Now(), n.Now()
	for {
		select {
		case sig := <-sigc:
			return d.drainAndExit(n, sig)
		case fn := <-d.ctl:
			fn(n)
			d.drainCtl(n)
		case <-pace.C:
		}
		if o.pace > 0 {
			target := startCycle + int64(time.Since(start)/o.pace)
			if deficit := target - n.Now(); deficit > 0 {
				if deficit > paceBurst {
					deficit = paceBurst
				}
				n.Run(deficit)
			}
		} else {
			n.Run(daemonSlice)
		}
		d.maybeCheckpoint(n)
		if d.pubCount++; d.pubCount%publishEvery == 0 {
			d.msrv.Publish(n.GatherMetrics())
		}
	}
}

// drainCtl runs every queued control request without advancing the clock
// between them, so a burst is answered against one consistent cycle.
func (d *daemon) drainCtl(n *network.Network) {
	for {
		select {
		case fn := <-d.ctl:
			fn(n)
		default:
			return
		}
	}
}

// drainAndExit is the graceful-shutdown path: refuse new work, settle
// what is in flight, persist a final checkpoint, flush the flight
// recorders and report.
func (d *daemon) drainAndExit(n *network.Network, sig os.Signal) error {
	fmt.Fprintf(d.diag, "mmrnet: %v — draining: closing the listener and settling pending work\n", sig)
	d.httpSrv.Close()
	d.drainCtl(n)
	// A grace window lets journaled open retries resolve; any that do
	// not are carried by the checkpoint's durable journal instead.
	n.Run(drainGrace)
	d.drainCtl(n)
	if d.o.checkpoint != "" {
		if err := n.QuiesceProbes(quiesceBudget); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		if err := n.SaveCheckpoint(d.o.checkpoint); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		fmt.Fprintf(d.diag, "mmrnet: final checkpoint at cycle %d -> %s\n", n.Now(), d.o.checkpoint)
	}
	n.DumpFlight(d.diag)
	st := n.Stats()
	open := 0
	for _, c := range n.Conns() {
		if c.Open() {
			open++
		}
	}
	fmt.Fprintf(d.out, "daemon      drained at cycle %d: %d connections still open, %d setup attempts (%d accepted, %d rejected, %d retries), %d closed, %d shed\n",
		n.Now(), open, st.SetupAttempts, st.SetupAccepted, st.SetupRejected, st.SetupRetries, st.Closed, d.shedCount.Load())
	fmt.Fprintf(d.out, "delivered   %d stream flits, %d/%d best-effort packets\n",
		st.FlitsDelivered, st.BEDelivered, st.BEGenerated)
	return nil
}

// maybeCheckpoint writes a periodic snapshot when one is due.
func (d *daemon) maybeCheckpoint(n *network.Network) {
	if d.o.checkpoint == "" || d.o.checkpointInterval <= 0 || n.Now()-d.lastCkpt < d.o.checkpointInterval {
		return
	}
	// Advance the stamp even on failure so a persistent error (disk
	// full, unwritable path) logs once per interval, not once per slice.
	d.lastCkpt = n.Now()
	if err := n.QuiesceProbes(quiesceBudget); err != nil {
		fmt.Fprintf(d.diag, "mmrnet: checkpoint at cycle %d skipped: %v\n", n.Now(), err)
		return
	}
	if err := n.SaveCheckpoint(d.o.checkpoint); err != nil {
		fmt.Fprintf(d.diag, "mmrnet: checkpoint at cycle %d failed: %v\n", n.Now(), err)
	}
}

func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/open", d.handleOpen)
	mux.HandleFunc("/api/close", d.handleClose)
	mux.HandleFunc("/api/modify", d.handleModify)
	mux.HandleFunc("/api/query", d.handleQuery)
	mux.HandleFunc("/api/conns", d.handleConns)
	mux.HandleFunc("/api/tenant", d.handleTenant)
	mux.HandleFunc("/api/tenants", d.handleTenants)
	mux.HandleFunc("/api/status", d.handleStatus)
	mux.Handle("/", d.msrv.Handler()) // /metrics, /metrics.json, /flight, /debug/pprof
	return mux
}

// submit queues a control request, or sheds it when the queue is full.
func (d *daemon) submit(w http.ResponseWriter, job func(n *network.Network)) bool {
	select {
	case d.ctl <- job:
		return true
	default:
		d.shedCount.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "control queue full, retry later", http.StatusServiceUnavailable)
		return false
	}
}

// await blocks until the fabric answers, the client goes away, or the
// request times out. The reply channel is buffered so the fabric side
// never blocks on an abandoned request.
func (d *daemon) await(w http.ResponseWriter, r *http.Request, reply <-chan ctlResp) (ctlResp, bool) {
	select {
	case resp := <-reply:
		return resp, true
	case <-r.Context().Done():
		return ctlResp{}, false
	case <-time.After(apiTimeout):
		http.Error(w, "fabric did not answer within the request timeout", http.StatusGatewayTimeout)
		return ctlResp{}, false
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func findConn(n *network.Network, id int) *network.Conn {
	for _, c := range n.Conns() {
		if int(c.ID) == id {
			return c
		}
	}
	return nil
}

type openRequest struct {
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	Class    string  `json:"class"` // "cbr" (default) or "vbr"
	RateMbps float64 `json:"rate_mbps"`
	PeakMbps float64 `json:"peak_mbps"` // VBR only; 0 = 3× rate
	Priority int     `json:"priority"`  // VBR only
	NoRetry  bool    `json:"no_retry"`  // refuse immediately instead of backoff + degrade
	// Tenant names the admission-quota owner of the session ("" = the
	// unlimited default tenant; see /api/tenant).
	Tenant string `json:"tenant,omitempty"`
}

type openResponse struct {
	Conn     int  `json:"conn"` // -1 when degraded to best-effort
	Degraded bool `json:"degraded"`
	// Flow is the owner handle of the best-effort fallback flow when the
	// request was shed or degraded (0 otherwise). Pass it back as
	// closeRequest.Flow to retire the flow — without the handle a shed
	// request's generator would run until process exit.
	Flow        int64 `json:"flow,omitempty"`
	Nodes       []int `json:"nodes,omitempty"`
	SetupCycles int64 `json:"setup_cycles"`
	Cycle       int64 `json:"cycle"`
}

func (d *daemon) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req openRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Rate(req.RateMbps) * traffic.Mbps}
	switch req.Class {
	case "", "cbr":
	case "vbr":
		spec.Class = flit.ClassVBR
		spec.PeakRate = traffic.Rate(req.PeakMbps) * traffic.Mbps
		if spec.PeakRate <= 0 {
			spec.PeakRate = 3 * spec.Rate
		}
		spec.Priority = req.Priority
	default:
		http.Error(w, "class must be cbr or vbr", http.StatusBadRequest)
		return
	}
	if spec.Rate <= 0 {
		http.Error(w, "rate_mbps must be positive", http.StatusBadRequest)
		return
	}
	// Overload shedding: a deep queue means the fabric cannot keep up
	// with admission work, so degrade new requests to best-effort
	// directly rather than queueing a full establishment search.
	shedToBE := len(d.ctl) >= ctlQueueDepth/2 && !req.NoRetry
	reply := make(chan ctlResp, 1)
	job := func(n *network.Network) {
		// One best-effort flit per packet (§3.4), so packets/cycle at the
		// requested rate is exactly the link's flits/cycle at that rate —
		// capped at one per cycle so a degraded request can never flood
		// the fabric harder than a saturated link.
		pkts := n.Config().Link.FlitsPerCycle(spec.Rate)
		if pkts > 1 {
			pkts = 1
		}
		degrade := func(cause error) {
			// The fallback flow is uncharged best-effort service, but a
			// tenant at its session ceiling gets the refusal, not free
			// capacity under a different guise.
			if !n.Tenants().CanAdmit(req.Tenant, 0) {
				reply <- ctlResp{err: fmt.Errorf("tenant %q over admission quota: %v", req.Tenant, cause)}
				return
			}
			id, err := n.AddBestEffortFlow(req.Src, req.Dst, pkts)
			if err != nil {
				reply <- ctlResp{err: cause}
				return
			}
			reply <- ctlResp{v: openResponse{Conn: -1, Degraded: true, Flow: int64(id), Cycle: n.Now()}}
		}
		if shedToBE {
			degrade(fmt.Errorf("fabric overloaded"))
			return
		}
		finish := func(c *network.Conn, err error) {
			if err != nil {
				if req.NoRetry {
					reply <- ctlResp{err: err}
				} else {
					degrade(err)
				}
				return
			}
			// A copy: the handler encodes the reply after the control loop has
			// moved on, and a checkpoint or a restoration writes c.Nodes.
			reply <- ctlResp{v: openResponse{Conn: int(c.ID), Nodes: slices.Clone(c.Nodes), SetupCycles: c.SetupTime, Cycle: n.Now()}}
		}
		form := network.FormRetry
		if req.NoRetry {
			form = network.FormOnce
		}
		or := network.OpenReq{Src: req.Src, Dst: req.Dst, Spec: spec, Tenant: req.Tenant}
		if err := n.OpenRequest(or, form, finish); err != nil {
			reply <- ctlResp{err: err} // endpoint validation failed; finish will not fire
		}
	}
	if !d.submit(w, job) {
		return
	}
	resp, ok := d.await(w, r, reply)
	if !ok {
		return
	}
	if resp.err != nil {
		http.Error(w, resp.err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, resp.v)
}

type closeRequest struct {
	Conn  int   `json:"conn"`
	Limit int64 `json:"limit"` // drain cycle budget; 0 = 10000
	// Flow, when nonzero, closes the standalone best-effort flow with
	// that owner handle (from openResponse.Flow) instead of a connection.
	Flow int64 `json:"flow,omitempty"`
}

func (d *daemon) handleClose(w http.ResponseWriter, r *http.Request) {
	var req closeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	limit := req.Limit
	if limit <= 0 {
		limit = 10_000
	}
	reply := make(chan ctlResp, 1)
	notFound := false
	if !d.submit(w, func(n *network.Network) {
		if req.Flow != 0 {
			if err := n.CloseFlow(network.FlowID(req.Flow)); err != nil {
				notFound = true
				reply <- ctlResp{err: err}
				return
			}
			reply <- ctlResp{v: map[string]any{"flow": req.Flow, "cycle": n.Now()}}
			return
		}
		c := findConn(n, req.Conn)
		if c == nil {
			notFound = true
			reply <- ctlResp{err: fmt.Errorf("unknown connection %d", req.Conn)}
			return
		}
		if err := n.DrainAndClose(c, limit); err != nil {
			reply <- ctlResp{err: err}
			return
		}
		reply <- ctlResp{v: map[string]any{"conn": req.Conn, "cycle": n.Now()}}
	}) {
		return
	}
	resp, ok := d.await(w, r, reply)
	if !ok {
		return
	}
	if resp.err != nil {
		code := http.StatusConflict
		if notFound {
			code = http.StatusNotFound
		}
		http.Error(w, resp.err.Error(), code)
		return
	}
	writeJSON(w, resp.v)
}

type modifyRequest struct {
	Conn     int     `json:"conn"`
	RateMbps float64 `json:"rate_mbps"`
}

func (d *daemon) handleModify(w http.ResponseWriter, r *http.Request) {
	var req modifyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	reply := make(chan ctlResp, 1)
	notFound := false
	if !d.submit(w, func(n *network.Network) {
		c := findConn(n, req.Conn)
		if c == nil {
			notFound = true
			reply <- ctlResp{err: fmt.Errorf("unknown connection %d", req.Conn)}
			return
		}
		if err := n.ModifyBandwidth(c, traffic.Rate(req.RateMbps)*traffic.Mbps); err != nil {
			reply <- ctlResp{err: err}
			return
		}
		reply <- ctlResp{v: map[string]any{"conn": req.Conn, "rate_mbps": req.RateMbps, "cycle": n.Now()}}
	}) {
		return
	}
	resp, ok := d.await(w, r, reply)
	if !ok {
		return
	}
	if resp.err != nil {
		code := http.StatusConflict
		if notFound {
			code = http.StatusNotFound
		}
		http.Error(w, resp.err.Error(), code)
		return
	}
	writeJSON(w, resp.v)
}

func (d *daemon) handleQuery(w http.ResponseWriter, r *http.Request) {
	node, err1 := strconv.Atoi(r.URL.Query().Get("node"))
	port, err2 := strconv.Atoi(r.URL.Query().Get("port"))
	if err1 != nil || err2 != nil {
		http.Error(w, "query needs integer node= and port= parameters", http.StatusBadRequest)
		return
	}
	reply := make(chan ctlResp, 1)
	if !d.submit(w, func(n *network.Network) {
		tp := n.Config().Topology
		if node < 0 || node >= tp.Nodes || port < 0 || port > tp.Ports {
			reply <- ctlResp{err: fmt.Errorf("node %d port %d out of range", node, port)}
			return
		}
		reply <- ctlResp{v: map[string]any{
			"node":            node,
			"port":            port,
			"free_vcs":        n.FreeVCsAt(node, port),
			"guaranteed_load": n.GuaranteedLoadAt(node, port),
			"cycle":           n.Now(),
		}}
	}) {
		return
	}
	resp, ok := d.await(w, r, reply)
	if !ok {
		return
	}
	if resp.err != nil {
		http.Error(w, resp.err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, resp.v)
}

// tenantRequest sets one tenant's admission quota. Zero fields mean
// unlimited; the Mbps budget is converted to the fabric's guaranteed
// cycles/round unit at the current link configuration.
type tenantRequest struct {
	Tenant            string  `json:"tenant"`
	MaxSessions       int     `json:"max_sessions"`
	MaxGuaranteedMbps float64 `json:"max_guaranteed_mbps"`
}

func (d *daemon) handleTenant(w http.ResponseWriter, r *http.Request) {
	var req tenantRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.MaxSessions < 0 || req.MaxGuaranteedMbps < 0 {
		http.Error(w, "quota fields must be non-negative", http.StatusBadRequest)
		return
	}
	reply := make(chan ctlResp, 1)
	if !d.submit(w, func(n *network.Network) {
		q := admission.TenantQuota{MaxSessions: req.MaxSessions}
		if req.MaxGuaranteedMbps > 0 {
			q.MaxGuaranteed = n.GuaranteedCyclesFor(traffic.ConnSpec{
				Class: flit.ClassCBR,
				Rate:  traffic.Rate(req.MaxGuaranteedMbps) * traffic.Mbps,
			})
		}
		if q.MaxGuaranteed == traffic.MaxCyclesPerRound {
			reply <- ctlResp{err: fmt.Errorf("max_guaranteed_mbps %g is too large to count in cycles per round", req.MaxGuaranteedMbps)}
			return
		}
		n.Tenants().SetQuota(req.Tenant, q)
		u := n.Tenants().Usage(req.Tenant)
		reply <- ctlResp{v: map[string]any{
			"tenant":                req.Tenant,
			"max_sessions":          q.MaxSessions,
			"max_guaranteed_cycles": q.MaxGuaranteed,
			"sessions":              u.Sessions,
			"guaranteed_cycles":     u.Guaranteed,
			"cycle":                 n.Now(),
		}}
	}) {
		return
	}
	resp, ok := d.await(w, r, reply)
	if !ok {
		return
	}
	if resp.err != nil {
		http.Error(w, resp.err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, resp.v)
}

type tenantInfo struct {
	Tenant           string `json:"tenant"`
	Limited          bool   `json:"limited"` // an explicit quota is set
	MaxSessions      int    `json:"max_sessions"`
	MaxGuaranteed    int    `json:"max_guaranteed_cycles"`
	Sessions         int    `json:"sessions"`
	GuaranteedCycles int    `json:"guaranteed_cycles"`
}

func (d *daemon) handleTenants(w http.ResponseWriter, r *http.Request) {
	reply := make(chan ctlResp, 1)
	if !d.submit(w, func(n *network.Network) {
		t := n.Tenants()
		out := make([]tenantInfo, 0)
		for _, name := range t.Names() {
			q, limited := t.Quota(name)
			u := t.Usage(name)
			out = append(out, tenantInfo{
				Tenant: name, Limited: limited,
				MaxSessions: q.MaxSessions, MaxGuaranteed: q.MaxGuaranteed,
				Sessions: u.Sessions, GuaranteedCycles: u.Guaranteed,
			})
		}
		reply <- ctlResp{v: map[string]any{"tenants": out, "cycle": n.Now()}}
	}) {
		return
	}
	if resp, ok := d.await(w, r, reply); ok {
		writeJSON(w, resp.v)
	}
}

type connInfo struct {
	Conn     int     `json:"conn"`
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	Class    string  `json:"class"`
	RateMbps float64 `json:"rate_mbps"`
	Tenant   string  `json:"tenant,omitempty"`
	Open     bool    `json:"open"`
	Broken   bool    `json:"broken"`
	Degraded bool    `json:"degraded"`
	Restores int     `json:"restores"`
}

func (d *daemon) handleConns(w http.ResponseWriter, r *http.Request) {
	reply := make(chan ctlResp, 1)
	if !d.submit(w, func(n *network.Network) {
		out := make([]connInfo, 0, len(n.Conns()))
		for _, c := range n.Conns() {
			class := "cbr"
			if c.Spec.Class == flit.ClassVBR {
				class = "vbr"
			}
			out = append(out, connInfo{
				Conn: int(c.ID), Src: c.Src, Dst: c.Dst, Class: class,
				RateMbps: float64(c.Spec.Rate) / float64(traffic.Mbps),
				Tenant:   c.Tenant,
				Open:     c.Open(), Broken: c.Broken(), Degraded: c.Degraded,
				Restores: c.Restores,
			})
		}
		reply <- ctlResp{v: map[string]any{"conns": out, "cycle": n.Now()}}
	}) {
		return
	}
	if resp, ok := d.await(w, r, reply); ok {
		writeJSON(w, resp.v)
	}
}

func (d *daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	reply := make(chan ctlResp, 1)
	if !d.submit(w, func(n *network.Network) {
		open := 0
		for _, c := range n.Conns() {
			if c.Open() {
				open++
			}
		}
		st := n.Stats()
		tp := n.Config().Topology
		shape := tp.Shape()
		params := map[string]int{}
		for _, p := range shape.Params {
			params[p.Name] = p.Value
		}
		kind := shape.Kind
		if kind == "" {
			kind = d.o.topo
		}
		reply <- ctlResp{v: map[string]any{
			"cycle": n.Now(),
			"topology": map[string]any{
				"kind":    kind,
				"params":  params,
				"nodes":   tp.Nodes,
				"links":   len(tp.Links),
				"regions": tp.NumRegions(),
				"route":   d.o.route,
			},
			"conns_open":            open,
			"conns_total":           len(n.Conns()),
			"setup_attempts":        st.SetupAttempts,
			"setup_accepted":        st.SetupAccepted,
			"setup_rejected":        st.SetupRejected,
			"setup_retries":         st.SetupRetries,
			"closed":                st.Closed,
			"flits_delivered":       st.FlitsDelivered,
			"be_delivered":          st.BEDelivered,
			"conns_broken":          st.ConnsBroken,
			"conns_restored":        st.ConnsRestored,
			"conns_degraded":        n.DegradedLive(),
			"conns_promoted":        st.ConnsPromoted,
			"checkpoint":            d.o.checkpoint,
			"last_checkpoint_cycle": d.lastCkpt,
			"queue_depth":           len(d.ctl),
		}}
	}) {
		return
	}
	if resp, ok := d.await(w, r, reply); ok {
		writeJSON(w, resp.v)
	}
}
