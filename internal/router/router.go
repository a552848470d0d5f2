// Package router implements the MMR single-chip router (Figure 1 of the
// paper). Core is the router itself — per-input-link virtual channel
// memories and link schedulers, an input-driven switch scheduler,
// round-based bandwidth accounting — and the stages of its flit cycle
// (§3.4); the fabric nodes of internal/network embed the same Core.
// Router puts ideal traffic sinks and a cycle-synchronous engine around
// it. This is the model behind every figure in §5: CBR/VBR connections
// feed input virtual channels, the link schedulers nominate candidates,
// the switch scheduler's matching sets the multiplexed crossbar, and
// delay/jitter are measured exactly as the paper defines them.
package router

import (
	"fmt"

	"mmr/internal/admission"
	"mmr/internal/flit"
	"mmr/internal/flow"
	"mmr/internal/sched"
	"mmr/internal/sim"
	"mmr/internal/traffic"
	"mmr/internal/vcm"
)

// AdmissionMode selects how Establish tests output-link capacity: the mode
// Core.Init gives every output's admission.LinkAllocator.
type AdmissionMode int

// Admission modes.
const (
	// AdmitAllocation uses the §4.2 integer cycles/round registers.
	AdmitAllocation AdmissionMode = iota
	// AdmitRate admits on exact connection rates (the §5 experimental
	// assumption).
	AdmitRate
)

// String implements fmt.Stringer.
func (m AdmissionMode) String() string {
	if m == AdmitRate {
		return "rate"
	}
	return "allocation"
}

// ArbiterKind selects the switch scheduling algorithm (§5.1).
type ArbiterKind int

// The four algorithms compared in Figures 3-5.
const (
	ArbPriority ArbiterKind = iota // input-driven grant/accept with priorities
	ArbAutonet                     // Anderson et al. randomized matching (DEC)
	ArbPerfect                     // N× speedup reference switch
	ArbISLIP                       // rotating-pointer iterative matching (ablation A10)
)

// String implements fmt.Stringer.
func (k ArbiterKind) String() string {
	switch k {
	case ArbPriority:
		return "priority"
	case ArbAutonet:
		return "autonet"
	case ArbPerfect:
		return "perfect"
	case ArbISLIP:
		return "islip"
	default:
		return fmt.Sprintf("ArbiterKind(%d)", int(k))
	}
}

// Config assembles a router. The zero value is unusable; call
// PaperConfig or fill every field and let New validate.
type Config struct {
	Ports int          // router radix (8×8 in §5)
	Link  traffic.Link // physical link and flit geometry
	VCM   vcm.Config   // per-input-port buffer organization

	// K is the round-length multiplier: a round is K × VirtualChannels
	// flit cycles (§4.1; K > 1 trades allocation granularity for jitter).
	K int

	// MaxCandidates is the link scheduler candidate count (1-8 in §5).
	MaxCandidates int

	// Scheme is the priority scheme (Biased/Fixed); Selection chooses
	// priority-ranked vs random candidate sets; Arbiter picks the switch
	// scheduling algorithm. The paper's four configurations are:
	//   biased:  Scheme=Biased, Selection=Priority, Arbiter=Priority
	//   fixed:   Scheme=Fixed,  Selection=Priority, Arbiter=Priority
	//   autonet: Selection=Random, Arbiter=Autonet
	//   perfect: Scheme=Biased, Arbiter=Perfect
	Scheme       sched.PriorityScheme
	Selection    sched.Selection
	Arbiter      ArbiterKind
	ArbiterIters int // grant/accept iterations; 0 = until converged

	// Concurrency is the VBR concurrency factor (§4.2).
	Concurrency float64

	// Admission selects the admission test. AdmitAllocation is the §4.2
	// hardware mechanism (integer flit cycles/round registers); because
	// every connection is rounded up to at least one cycle/round, it
	// over-reserves for slow connections. AdmitRate admits on exact rates
	// — the idealization under which the paper's §5 experiments run up to
	// 95% offered load. Scheduling-time bandwidth enforcement always uses
	// the integer allocation.
	Admission AdmissionMode

	// NoIdleSkip disables activity gating: Nominate scans every port and
	// injection walks every session, not just the busy ports and the
	// sessions the calendars hand over. The router steps every cycle either
	// way. Both produce bit-identical results (the equivalence tests pin
	// this); the flag is a debugging escape hatch and their reference side.
	NoIdleSkip bool

	Seed uint64
}

// PaperConfig returns the §5 experimental setup: an 8×8 router with 256
// virtual channels per input port, 1.24 Gbps links, 128-bit flits and a
// two-round multiplier.
func PaperConfig() Config {
	return Config{
		Ports:         8,
		Link:          traffic.PaperLink,
		VCM:           vcm.PaperConfig(),
		K:             2,
		MaxCandidates: 8,
		Scheme:        sched.Biased{},
		Selection:     sched.SelectPriority,
		Arbiter:       ArbPriority,
		Concurrency:   2,
		Admission:     AdmitRate,
		Seed:          1,
	}
}

func (c *Config) validate() error {
	if c.Ports < 2 {
		return fmt.Errorf("router: need at least 2 ports, got %d", c.Ports)
	}
	if c.Link.Bandwidth <= 0 || c.Link.FlitBits <= 0 {
		return fmt.Errorf("router: invalid link %+v", c.Link)
	}
	if c.K < 1 {
		return fmt.Errorf("router: round multiplier K must be >= 1, got %d", c.K)
	}
	if c.MaxCandidates < 1 {
		return fmt.Errorf("router: need at least 1 candidate, got %d", c.MaxCandidates)
	}
	if c.Concurrency < 1 {
		return fmt.Errorf("router: concurrency factor %.2f < 1", c.Concurrency)
	}
	return nil
}

// RoundLen returns the round length in flit cycles.
func (c *Config) RoundLen() int { return c.K * c.VCM.VirtualChannels }

// Connection is one established virtual circuit through the router.
type Connection struct {
	ID   flit.ConnID
	Spec traffic.ConnSpec
	VC   int // input virtual channel

	ni       traffic.Injector // source and interface queue (policed injection, §4.2)
	released bool

	// admitted is the rate admission holds bandwidth for at the output
	// link: Spec.Rate, but for the flit cycle a SetBandwidth word travels.
	admitted traffic.Rate
}

// Router is a single MMR instance: the shared Core plus what only the
// single-chip experiments of §5 have — ideal traffic sinks, in-band
// control words, the asynchronous control cut-through (§3.4) and the
// paper's measurements.
type Router struct {
	core Core // by value, and named: its stages are not Router's API
	cfg  Config
	rng  *sim.RNG
	now  int64
	pool *flit.Pool // per-router free list; see docs/performance.md

	// The connections and the packet flows — control flows, then
	// best-effort flows, each in the order added — with the calendars that
	// file them by when injectStreams and injectPackets must look at them.
	conns      []*Connection
	cal        traffic.Calendar[*Connection]
	flows      []*packetFlow
	pcal       traffic.Calendar[*packetFlow]
	pendingCtl flow.Lane[pendingControl] // control words in flight (control.go)

	// outputBusyAsync marks outputs occupied by an asynchronous control
	// cut-through that overruns the current flit cycle (§3.4).
	outputBusyAsync []bool

	m  measurement
	om *routerMetrics // observability layer (observe.go)
}

// New builds a router from cfg.
func New(cfg Config) (*Router, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Scheme == nil {
		cfg.Scheme = sched.Biased{}
	}
	r := &Router{
		cfg:             cfg,
		rng:             sim.NewRNG(cfg.Seed),
		pool:            flit.NewPool(),
		outputBusyAsync: make([]bool, cfg.Ports),
	}
	if err := r.core.Init(&r.cfg, r.rng, vcm.NewStore(cfg.Ports)); err != nil {
		return nil, err
	}
	r.m.reset()
	return r, nil
}

// Config returns the router's configuration.
func (r *Router) Config() Config { return r.cfg }

// Connections returns the established connections.
func (r *Router) Connections() []*Connection { return r.conns }

// Allocator exposes an output link's admission state.
func (r *Router) Allocator(out int) *admission.LinkAllocator { return r.core.Alloc[out] }

// Memory exposes an input port's VCM (primarily for tests and tools).
func (r *Router) Memory(in int) *vcm.Memory { return r.core.Mems[in] }

// Establish admits and sets up a connection per spec: it reserves an input
// virtual channel, allocates bandwidth at the output link (§4.2), and
// installs the channel mapping and per-VC scheduling state (§3.2, §4.3).
// In the single-router model the EPB probe handshake degenerates to this
// local reservation; the network package implements the full protocol.
func (r *Router) Establish(spec traffic.ConnSpec) (*Connection, error) {
	if spec.In < 0 || spec.In >= r.cfg.Ports || spec.Out < 0 || spec.Out >= r.cfg.Ports {
		return nil, fmt.Errorf("router: ports (%d,%d) out of range", spec.In, spec.Out)
	}
	if !spec.Class.IsStream() {
		return nil, fmt.Errorf("router: Establish is for stream classes, got %v", spec.Class)
	}
	vc := r.core.Mems[spec.In].PickFree(r.rng)
	if vc < 0 {
		return nil, fmt.Errorf("router: no free virtual channel on input %d", spec.In)
	}
	d := r.core.DemandOf(spec)
	if !r.core.AdmitAt(spec.Out, spec, d) {
		if spec.Class == flit.ClassVBR {
			return nil, fmt.Errorf("router: output %d cannot admit VBR %v/%v", spec.Out, spec.Rate, spec.PeakRate)
		}
		return nil, fmt.Errorf("router: output %d cannot admit %v CBR", spec.Out, spec.Rate)
	}
	id := flit.ConnID(len(r.conns))
	// Under the fixed scheme a connection's static priority is its rate
	// (§4.4 "static priorities"), the QoS class whose dynamic counterpart is
	// the biased scheme (which grows priorities at a rate ∝ connection speed,
	// §5.1). Strict priority by rate is stable below saturation: every class
	// sees capacity left by faster classes.
	base := spec.Priority
	if _, isFixed := r.cfg.Scheme.(sched.Fixed); isFixed {
		base = int(spec.Rate / 1000) // Kbps granularity
	}
	r.core.Mems[spec.In].Reserve(vc, vcm.VCState{Conn: id, Class: spec.Class, BasePriority: base, Output: spec.Out})
	r.core.Retune(spec.In, vc, d)
	conn := &Connection{ID: id, Spec: spec, VC: vc, admitted: spec.Rate}
	conn.ni.Start(r.now)
	switch spec.Class {
	case flit.ClassCBR:
		conn.ni.Source = traffic.NewCBRSource(r.cfg.Link, spec.Rate, r.rng.Float64())
	case flit.ClassVBR:
		conn.ni.Source = traffic.NewVBRSource(r.rng, r.cfg.Link, spec.Rate, spec.PeakRate, traffic.DefaultGoP())
	}
	r.conns = append(r.conns, conn)
	r.cal.Invalidate()
	r.m.sink.Tracker.Grow(len(r.conns))
	return conn, nil
}

// EstablishWithSource is Establish with a caller-provided flit source —
// e.g. an MPEG-2 frame-size trace played through internal/trace — in
// place of the statistical CBR/VBR generators. The admission demand
// still comes from spec.Rate/PeakRate; the caller is responsible for the
// source respecting them (the router's policing bounds any excess).
func (r *Router) EstablishWithSource(spec traffic.ConnSpec, src traffic.Source) (*Connection, error) {
	conn, err := r.Establish(spec)
	if err != nil {
		return nil, err
	}
	conn.ni.Source = src
	r.cal.Invalidate()
	return conn, nil
}

// EstablishWorkload establishes every connection of a generated workload,
// returning the count admitted. Workloads built with Generate respect
// per-port bandwidth, so admission failures indicate VC exhaustion.
func (r *Router) EstablishWorkload(w *traffic.Workload) (int, error) {
	n := 0
	for _, spec := range w.Conns {
		if _, err := r.Establish(spec); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
