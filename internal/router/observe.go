package router

import (
	"strconv"

	"mmr/internal/flit"
	"mmr/internal/metrics"
)

// observe.go exports the single-router simulation's state as a metric
// registry, mirroring the measurement struct, the link schedulers'
// event counters and the live VCM/allocator state at gather time. The
// only hot-path additions are the Sink's per-class delay and jitter
// histogram observes — a bounded bucket scan and three increments per
// departing stream flit, nothing allocated — so the router's zero-alloc
// and throughput gates hold unchanged.
//
// The registry is lazy: nothing is built until EnableMetrics (or the
// first gather), so router construction — which sweeps pay for on
// every grid cell — stays registry-free. Mirrored families are
// correct whenever the registry is created, since they are copied
// from live state at gather time; only the hot-path delay/jitter
// histograms need EnableMetrics *before* the run to observe it.

// routerMetrics holds the router's metric handles and its one shard.
type routerMetrics struct {
	reg *metrics.Registry
	sh  *metrics.Shard

	generated   metrics.Counter
	transmitted metrics.Counter
	classDone   [flit.NumClasses]metrics.Counter
	ctlFast     metrics.Counter
	ctlWords    metrics.Counter
	framesAbort metrics.Counter
	dropped     metrics.Counter

	core CoreSeries // the link-scheduler counters and per-port gauges

	cycles metrics.Gauge
	util   metrics.Gauge
}

func (r *Router) initMetrics() {
	reg := metrics.New()
	om := &routerMetrics{reg: reg}

	// A packet has no head-of-VC delay: only streams are delay samples.
	sink := RegisterSink(reg, flit.Class.String,
		Family{Name: "mmr_router_delay_cycles", Help: "head-of-VC delay by service class", Buckets: metrics.Pow2Buckets(1, 12)},
		Family{Name: "mmr_router_jitter_cycles", Help: "delay difference between successive flits of a connection", Buckets: metrics.Pow2Buckets(1, 9)},
		false)
	for c := range flit.NumClasses {
		om.classDone[c] = reg.Counter("mmr_router_delivered_total",
			"flits transmitted by service class", "class", flit.Class(c).String())
	}
	om.generated = reg.Counter("mmr_router_flits_generated_total", "stream flits injected")
	om.transmitted = reg.Counter("mmr_router_flits_transmitted_total", "flits through the switch")
	om.ctlFast = reg.Counter("mmr_router_control_fast_path_total", "control packets cut through asynchronously")
	om.ctlWords = reg.Counter("mmr_router_control_words_total", "in-band management commands applied")
	om.framesAbort = reg.Counter("mmr_router_frames_aborted_total", "frames aborted by bandwidth management")
	om.dropped = reg.Counter("mmr_router_flits_dropped_total", "flits dropped by frame aborts")
	om.core.Nominated = reg.Counter("mmr_router_sched_nominated_total", "candidates handed to the switch arbiter")
	om.core.CreditStalled = reg.Counter("mmr_router_sched_credit_stalled_total", "VC-cycles with a flit buffered but no downstream credit")
	om.core.RoundExhausted = reg.Counter("mmr_router_sched_round_exhausted_total", "VC-cycles passed over: per-round allocation consumed")
	om.core.BiasBoosted = reg.Counter("mmr_router_sched_bias_boosted_total", "candidates lifted above base priority by the dynamic bias")
	om.cycles = reg.Gauge("mmr_router_cycles", "flit cycles in the measurement window")
	om.util = reg.Gauge("mmr_router_switch_utilization", "transmitted flits / (ports x cycles)")
	for p := 0; p < r.cfg.Ports; p++ {
		port := strconv.Itoa(p)
		om.core.VCOccupied = append(om.core.VCOccupied, reg.Gauge(
			"mmr_router_vc_occupied_flits", "flits buffered per input port", "port", port))
		om.core.VCReserved = append(om.core.VCReserved, reg.Gauge(
			"mmr_router_vc_reserved", "virtual channels in use per input port", "port", port))
		om.core.GuaranteedLoad = append(om.core.GuaranteedLoad, reg.Gauge(
			"mmr_router_guaranteed_load", "guaranteed-bandwidth fraction allocated per output port", "port", port))
	}

	om.sh = reg.NewShard()
	r.om = om
	r.m.sink.Bind(om.sh, sink)
	reg.OnGather(r.collectMetrics)
}

// collectMetrics mirrors the measurement state into the registry; runs
// at the start of every Gather.
func (r *Router) collectMetrics() {
	om := r.om
	sh := om.sh
	m := &r.m
	sh.Store(om.generated, m.generated)
	sh.Store(om.transmitted, m.transmitted())
	for c, n := range m.sink.Delivered {
		sh.Store(om.classDone[c], n)
	}
	sh.Store(om.ctlFast, m.ctlFastPath)
	sh.Store(om.ctlWords, m.controlWords)
	sh.Store(om.framesAbort, m.framesAborted)
	sh.Store(om.dropped, m.flitsDropped)

	r.core.Mirror(sh, &om.core)

	sh.Set(om.cycles, float64(m.cycles))
	if m.cycles > 0 {
		sh.Set(om.util, float64(m.transmitted())/(float64(r.cfg.Ports)*float64(m.cycles)))
	}
}

// EnableMetrics builds the metric registry and wires the hot-path
// histogram observes. Idempotent. Call before Run to have the
// delay/jitter histograms cover the measurement window.
func (r *Router) EnableMetrics() {
	if r.om == nil {
		r.initMetrics()
	}
}

// GatherMetrics snapshots the registry, enabling metrics if needed.
// Call between steps.
func (r *Router) GatherMetrics() *metrics.Snapshot {
	r.EnableMetrics()
	return r.om.reg.Gather()
}
