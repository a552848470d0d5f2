package router

import (
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

	classDone [flit.NumClasses]metrics.Counter
	counters  []metrics.Counter // one per entry of measurement.counters
	core      CoreSeries        // the link-scheduler counters and per-port gauges

	cycles metrics.Gauge
	util   metrics.Gauge
}

// counter is one of the router's own counters: its series and its value.
type counter struct {
	name, help string
	v          int64
}

// counters lists m's counters, valued now, in the order their series are
// registered (initMetrics).
func (m *measurement) counters() [6]counter {
	return [...]counter{
		{"mmr_router_flits_generated_total", "stream flits injected", m.generated},
		{"mmr_router_flits_transmitted_total", "flits through the switch", m.transmitted()},
		{"mmr_router_control_fast_path_total", "control packets cut through asynchronously", m.ctlFastPath},
		{"mmr_router_control_words_total", "in-band management commands applied", m.controlWords},
		{"mmr_router_frames_aborted_total", "frames aborted by bandwidth management", m.framesAborted},
		{"mmr_router_flits_dropped_total", "flits dropped by frame aborts", m.flitsDropped},
	}
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
	for _, c := range r.m.counters() {
		om.counters = append(om.counters, reg.Counter(c.name, c.help))
	}
	om.cycles = reg.Gauge("mmr_router_cycles", "flit cycles in the measurement window")
	om.util = reg.Gauge("mmr_router_switch_utilization", "transmitted flits / (ports x cycles)")
	om.core = RegisterCore(reg, "mmr_router", r.cfg.Ports)

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
	for c, n := range m.sink.Delivered {
		sh.Store(om.classDone[c], n)
	}
	for i, c := range m.counters() {
		sh.Store(om.counters[i], c.v)
	}
	r.core.Mirror(sh, &om.core)
	sh.Set(om.cycles, float64(m.cycles))
	sh.Set(om.util, m.utilization(r.cfg.Ports))
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
