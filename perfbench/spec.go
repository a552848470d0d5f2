package main

// metricDef declares one metric. BENCHMARK.json at the repository root lists
// the same names, units, directions and bounds; TestManifestMatchesSpec keeps
// the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: share of the parent's median it may worsen by
}

// runSeconds is how long the timed replicas of one run take together on the
// sandbox the sizes were chosen on; --seconds scales the work from here.
const runSeconds = 6

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports every one of them (the driver's contract), so each is defined on
// all four; README.md says what it means on each.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_cycles_per_s", "cycles/s", "higher", 0.25},
	{"flits_per_s", "flits/s", "higher", 0.25},
	{"call_p50_us", "us", "lower", 0.25},
	{"call_p99_us", "us", "lower", 0.25},
	{"peak_rss_MB", "MB", "lower", 0.15},
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// perLayer are the traced run's metrics. wl.* describe the workload being
// run, from spans around its own calls. router.*/traffic.* come from the
// spans of paper_sweep's set-up and fixed window, and network.*, topology.*,
// metrics.* and admission.accept_share from session_churn's; a traced run of
// another workload runs that set-up and window as a probe, so these read the
// same way everywhere. The rest are direct probes of the lower modules.
var perLayer = []metricDef{
	layer("wl.setup.build_ms", "ms", "lower"),
	layer("wl.setup.establish_ms", "ms", "lower"),
	layer("wl.setup.warm_ms", "ms", "lower"),
	layer("wl.setup.establish_us_per_req", "us", "lower"),
	layer("wl.setup.warm_ns_per_cycle", "ns", "lower"),
	layer("wl.step_ns_per_cycle", "ns", "lower"),
	layer("wl.step_ns_per_cycle_p99", "ns", "lower"),
	layer("wl.step_ns_per_flit_hop", "ns", "lower"),
	layer("wl.step_allocs_per_cycle", "count", "lower"),
	layer("wl.fused_drain_share", "share", "higher"),
	layer("wl.gating_speedup", "ratio", "higher"),
	layer("wl.step_ns_per_cycle_w2", "ns", "lower"),
	layer("wl.par_eff_w2", "share", "higher"),
	layer("wl.share.router", "share", "lower"),
	layer("wl.share.network", "share", "lower"),
	layer("wl.share.checkpoint", "share", "lower"),
	layer("wl.share.harness", "share", "lower"),
	layer("wl.span_coverage_share", "share", "higher"),
	layer("wl.trace_overhead_share", "share", "lower"),
	layer("wl.session_ops_per_s", "ops/s", "higher"),
	layer("wl.ckpt_encode_MB_per_s", "MB/s", "higher"),
	layer("wl.ckpt_restore_MB_per_s", "MB/s", "higher"),
	layer("wl.accept_share", "share", "higher"),
	layer("wl.setup_backtracks_mean", "count", "lower"),
	layer("wl.stream_jitter_cycles", "cycles", "lower"),
	layer("wl.stream_delay_cycles", "cycles", "lower"),
	layer("wl.window_flits", "count", "higher"),

	layer("router.step_ns_per_cycle.priority", "ns", "lower"),
	layer("router.step_ns_per_cycle.autonet", "ns", "lower"),
	layer("router.step_ns_per_cycle.perfect", "ns", "lower"),
	layer("router.step_ns_per_cycle.backlogged", "ns", "lower"),
	layer("router.new_us", "us", "lower"),
	layer("router.establish_us_per_conn", "us", "lower"),
	layer("router.warm_ns_per_cycle", "ns", "lower"),
	layer("traffic.generate_us", "us", "lower"),

	layer("topology.fattree_build_ms", "ms", "lower"),
	layer("network.new_ms", "ms", "lower"),
	layer("network.openbatch_us_per_req", "us", "lower"),
	layer("network.warm_ns_per_cycle", "ns", "lower"),
	layer("network.open_us_p50", "us", "lower"),
	layer("network.open_us_p99", "us", "lower"),
	layer("network.openretry_us_p50", "us", "lower"),
	layer("network.drainclose_us_p50", "us", "lower"),
	layer("network.modify_us_p50", "us", "lower"),
	layer("network.query_us_p50", "us", "lower"),
	layer("network.stats_snapshot_us", "us", "lower"),
	layer("metrics.gather_us", "us", "lower"),
	layer("network.churn_run_ns_per_cycle", "ns", "lower"),
	layer("network.check_invariants_ms", "ms", "lower"),
	layer("network.fail_link_us", "us", "lower"),
	layer("network.restore_link_us", "us", "lower"),
	layer("network.encode_state_ms", "ms", "lower"),
	layer("network.restore_state_ms", "ms", "lower"),
	layer("network.save_file_ms", "ms", "lower"),
	layer("network.restore_file_ms", "ms", "lower"),
	layer("network.ckpt_bytes", "bytes", "lower"),
	layer("network.restoration_cycles_mean", "cycles", "lower"),
	layer("network.conns_broken", "count", "lower"),
	layer("network.conns_restored", "count", "higher"),
	layer("network.conns_degraded", "count", "lower"),
	layer("network.conns_promoted", "count", "higher"),
	layer("network.setup_backtracks_mean", "count", "lower"),
	layer("admission.accept_share", "share", "higher"),

	layer("sched.priority_arbiter_ns", "ns", "lower"),
	layer("sched.pim_arbiter_ns", "ns", "lower"),
	layer("sched.islip_arbiter_ns", "ns", "lower"),
	layer("sched.link_candidates_ns", "ns", "lower"),
	layer("vcm.push_pop_ns", "ns", "lower"),
	layer("vcm.find_free_ns", "ns", "lower"),
	layer("bitvec.nextset_ns", "ns", "lower"),
	layer("flow.credit_roundtrip_ns", "ns", "lower"),
	layer("flit.pool_getput_ns", "ns", "lower"),
	layer("routing.search_us_p50", "us", "lower"),
	layer("routing.dists_recompute_ms", "ms", "lower"),
	layer("routing.multipath_choose_us", "us", "lower"),
	layer("admission.admit_release_ns", "ns", "lower"),
	layer("admission.tenant_admit_ns", "ns", "lower"),
	layer("sim.event_ns", "ns", "lower"),
	layer("checkpoint.seal_MB_per_s", "MB/s", "higher"),
	layer("checkpoint.open_MB_per_s", "MB/s", "higher"),

	layer("host.calib_ns", "ns", "lower"),
	layer("host.calib_drift_share", "share", "lower"),
	layer("host.gc_pause_ms", "ms", "lower"),
	layer("host.gc_cycles", "count", "lower"),
	layer("host.heap_MB_end", "MB", "lower"),
}
