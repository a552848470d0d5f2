package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
)

// ledgerIn carries what the traced run measured before the ledger is drawn up.
type ledgerIn struct {
	so                        setupOut
	win                       windowOut // the untraced reference window
	setupRoot, timedRoot      int32
	windowRoot                int32       // the traced rerun of the window
	accs                      []*timedAcc // the timed replicas
	mem0, mem1                memCounters
	buildSec, estSec, warmSec []float64
}

// tracedExtras does what only the traced run does: the two-worker and
// ungated reruns of the fixed window, which must reproduce its fingerprint;
// the paper_sweep and session_churn windows as probes when another workload is
// running; the direct layer probes; and the per-layer metrics.
func tracedExtras(w *workload, seed uint64, sz *sizes, tr *tracer, res *result, in ledgerIn) error {
	out := map[string]float64{}

	// Reruns of the fixed window on fresh set-ups. Each must reproduce the
	// reference window's fingerprint: spans, a second worker and stepping
	// every idle node change how the simulator runs, never what it computes.
	var windowRoot int32
	rerun := func(label string, v variant, workers int) (windowOut, error) {
		runtime.GC()
		inst, _, err := w.setup(seed, sz, v, tr)
		if err != nil {
			return windowOut{}, fmt.Errorf("%s %s rerun: %w", w.name, label, err)
		}
		defer inst.close()
		windowRoot = tr.begin("bench.window." + label)
		got := inst.window(tr, res, workers)
		tr.end(windowRoot)
		if v.noIdleSkip && !inst.gatingExact() {
			if got.fingerprint != in.win.fingerprint {
				res.Known = append(res.Known, fmt.Sprintf("%s: the %s rerun's fingerprint %016x differs from the reference window's %016x", w.name, label, got.fingerprint, in.win.fingerprint))
			}
			return got, nil
		}
		res.check(got.fingerprint == in.win.fingerprint,
			"%s: the %s rerun's fingerprint %016x differs from the reference window's %016x", w.name, label, got.fingerprint, in.win.fingerprint)
		return got, nil
	}
	w2, err := rerun("workers2", variant{}, 2)
	if err != nil {
		return err
	}
	ungated, err := rerun("noidleskip", variant{noIdleSkip: true}, 1)
	if err != nil {
		return err
	}
	tracedWin, err := rerun("traced", variant{}, 1) // last, so windowRoot is this one's
	if err != nil {
		return err
	}
	in.windowRoot = windowRoot
	out["wl.step_ns_per_cycle_w2"] = w2.wallSec * 1e9 / float64(w2.cycles)
	out["wl.par_eff_w2"] = in.win.wallSec / (2 * w2.wallSec)
	out["wl.gating_speedup"] = ungated.cpuSec / in.win.cpuSec
	out["wl.trace_overhead_share"] = (tracedWin.cpuSec - in.win.cpuSec) / in.win.cpuSec

	// This workload, from its own spans and counters.
	a := in.accs[len(in.accs)-1]
	timed := tr.stats(in.timedRoot)
	out["wl.setup.build_ms"] = median(in.buildSec) * 1e3
	out["wl.setup.establish_ms"] = median(in.estSec) * 1e3
	out["wl.setup.warm_ms"] = median(in.warmSec) * 1e3
	out["wl.setup.establish_us_per_req"] = median(in.estSec) * 1e6 / float64(in.so.requests)
	out["wl.setup.warm_ns_per_cycle"] = median(in.warmSec) * 1e9 / float64(in.so.warmCycles)
	// Step cost: each Run call's ns per simulated cycle, its fastest
	// reading across the replicas (the end-to-end estimator).
	step := fastest(in.accs, func(x *timedAcc) []float64 { return x.runNs })
	stepSum := 0.0
	for _, ns := range step {
		stepSum += ns
	}
	out["wl.step_ns_per_cycle"] = stepSum / float64(len(step))
	out["wl.step_ns_per_cycle_p99"] = quantile(step, 0.99)
	out["wl.step_ns_per_flit_hop"] = out["wl.step_ns_per_cycle"] * float64(a.cycles) / float64(max(a.linkFlits, 1))
	out["wl.step_allocs_per_cycle"] = float64(in.mem1.mallocs-in.mem0.mallocs) / float64(a.cycles)
	out["wl.fused_drain_share"] = float64(a.fused) / float64(a.cycles)
	total := tr.dur(in.timedRoot)
	share := func(prefix string) float64 {
		ns := 0.0
		for name, st := range timed {
			if strings.HasPrefix(name, prefix) {
				ns += st.self
			}
		}
		return ns / total
	}
	out["wl.share.router"] = share("router.")
	out["wl.share.network"] = share("network.")
	out["wl.share.checkpoint"] = share("checkpoint.")
	out["wl.share.harness"] = 1 - (share("") - share("bench."))
	out["wl.span_coverage_share"] = tr.coverage(in.timedRoot)
	res.check(out["wl.span_coverage_share"] >= sz.minCoverage, "%s: spans cover %.3f of the timed phase, under %.2f", w.name, out["wl.span_coverage_share"], sz.minCoverage)
	out["wl.session_ops_per_s"] = float64(a.ops) / a.cpuSec
	out["wl.ckpt_encode_MB_per_s"], out["wl.ckpt_restore_MB_per_s"] = 0, 0
	if a.ckptBytes > 0 {
		out["wl.ckpt_encode_MB_per_s"] = float64(a.ckptBytes) / 1e6 / a.ckptEncodeSec
		out["wl.ckpt_restore_MB_per_s"] = float64(a.ckptBytes) / 1e6 / a.ckptLoadSec
	}
	out["wl.accept_share"] = float64(in.so.accepted) / float64(in.so.requests)
	out["wl.setup_backtracks_mean"] = in.so.backtracks
	out["wl.stream_jitter_cycles"] = in.win.sim["stream_jitter_cycles"]
	out["wl.stream_delay_cycles"] = in.win.sim["stream_delay_cycles"]
	out["wl.window_flits"] = in.win.sim["flits_delivered"]

	// The router and control-plane ledgers read the spans of paper_sweep's
	// and session_churn's set-up and window: this run's own when it is that
	// workload, a probe run of them otherwise.
	probe := func(name string) (setupOut, windowOut, int32, int32, error) {
		if w.name == name {
			return in.so, in.win, in.setupRoot, in.windowRoot, nil
		}
		runtime.GC()
		sroot := tr.begin("bench.probe.setup")
		inst, so, err := findWorkload(name).setup(seed, sz, variant{}, tr)
		tr.end(sroot)
		if err != nil {
			return so, windowOut{}, 0, 0, fmt.Errorf("%s probe: %w", name, err)
		}
		defer inst.close()
		wroot := tr.begin("bench.probe.window")
		win := inst.window(tr, res, 1)
		tr.end(wroot)
		return so, win, sroot, wroot, nil
	}
	so, _, sroot, wroot, err := probe("paper_sweep")
	if err != nil {
		return err
	}
	routerLedger(tr.stats(sroot), tr.stats(wroot), so, sz, out)
	so, win, sroot, wroot, err := probe("session_churn")
	if err != nil {
		return err
	}
	networkLedger(tr.stats(sroot), tr.stats(wroot), so, win, out)

	if err := runProbes(seed, sz, out); err != nil {
		return err
	}

	end := readMem()
	out["host.gc_pause_ms"] = float64(end.pauseNs) / 1e6
	out["host.gc_cycles"] = float64(end.gcCycles)
	out["host.heap_MB_end"] = end.heapMB

	for name, v := range out {
		res.Metrics[name] = metric{v, unitOf(perLayer, name)}
	}
	return tr.writeChrome(filepath.Join(outDir, "trace-"+w.name+".json"), fmt.Sprintf("%s-seed%d", w.name, seed))
}

// first returns the first recorded duration of a span name, or 0.
func first(st map[string]*spanStat, name string) float64 {
	if s := st[name]; s != nil && len(s.durs) > 0 {
		return s.durs[0]
	}
	return 0
}

// mid returns the median duration of a span name, or 0.
func mid(st map[string]*spanStat, names ...string) float64 {
	var all []float64
	for _, name := range names {
		if s := st[name]; s != nil {
			all = append(all, s.durs...)
		}
	}
	return quantile(all, 0.5)
}

func sum(st map[string]*spanStat, name string) (total float64, count int) {
	if s := st[name]; s != nil {
		return s.total, s.count
	}
	return 0, 0
}

// routerLedger fills router.* and traffic.* from paper_sweep's spans.
func routerLedger(setup, window map[string]*spanStat, so setupOut, sz *sizes, out map[string]float64) {
	out["router.new_us"] = mid(setup, "router.New") / 1e3
	out["traffic.generate_us"] = mid(setup, "traffic.Generate") / 1e3
	est, _ := sum(setup, "router.EstablishWorkload")
	out["router.establish_us_per_conn"] = est / 1e3 / float64(so.requests)
	warm, _ := sum(setup, "router.Run.warm")
	out["router.warm_ns_per_cycle"] = warm / float64(so.warmCycles)
	for _, g := range paperGroups {
		total, count := sum(window, "router.Run."+g)
		out["router.step_ns_per_cycle."+g] = total / float64(int64(count)*sz.paperWindow)
	}
}

// networkLedger fills network.*, topology.*, metrics.* and
// admission.accept_share from session_churn's spans and simulated counts.
func networkLedger(setup, window map[string]*spanStat, so setupOut, win windowOut, out map[string]float64) {
	// The first FatTree, New and OpenBatch of the set-up are the bring-up's.
	out["topology.fattree_build_ms"] = first(setup, "topology.FatTree") / 1e6
	out["network.new_ms"] = first(setup, "network.New") / 1e6
	out["network.openbatch_us_per_req"] = first(setup, "network.OpenBatch") / 1e3 / float64(so.requests)
	warm, _ := sum(setup, "network.Run.warm")
	out["network.warm_ns_per_cycle"] = warm / float64(so.warmCycles)
	out["admission.accept_share"] = float64(so.accepted) / float64(so.requests)
	out["network.setup_backtracks_mean"] = so.backtracks

	if s := window["network.Open"]; s != nil {
		out["network.open_us_p50"] = quantile(s.durs, 0.5) / 1e3
		out["network.open_us_p99"] = quantile(s.durs, 0.99) / 1e3
	}
	out["network.openretry_us_p50"] = mid(window, "network.OpenWithRetry") / 1e3
	out["network.drainclose_us_p50"] = mid(window, "network.DrainAndClose") / 1e3
	out["network.modify_us_p50"] = mid(window, "network.ModifyBandwidth") / 1e3
	out["network.query_us_p50"] = mid(window, "network.FreeVCsAt", "network.GuaranteedLoadAt") / 1e3
	out["network.stats_snapshot_us"] = mid(window, "network.Stats") / 1e3
	out["metrics.gather_us"] = mid(window, "network.GatherMetrics") / 1e3
	run, _ := sum(window, "network.Run")
	out["network.churn_run_ns_per_cycle"] = run / win.sim["run_cycles"]
	out["network.check_invariants_ms"] = mid(window, "network.CheckInvariants") / 1e6
	out["network.fail_link_us"] = mid(window, "network.FailLink") / 1e3
	out["network.restore_link_us"] = mid(window, "network.RestoreLink") / 1e3
	out["network.encode_state_ms"] = mid(window, "network.EncodeState") / 1e6
	out["network.restore_state_ms"] = mid(window, "network.RestoreState") / 1e6
	out["network.save_file_ms"] = mid(window, "network.SaveCheckpoint") / 1e6
	out["network.restore_file_ms"] = mid(window, "network.RestoreCheckpoint") / 1e6
	out["network.ckpt_bytes"] = win.sim["ckpt_bytes"]
	for _, k := range []string{"restoration_cycles_mean", "conns_broken", "conns_restored", "conns_degraded", "conns_promoted"} {
		out["network."+k] = win.sim[k]
	}
}
