// Command perfbench is the repository's one benchmark: four workloads over
// the MMR simulator, end-to-end rates a user of the simulator feels, and a
// per-layer ledger measured from outside the program. README.md has the
// tables; BENCHMARK.json at the repository root is the contract.
//
//	bash perfbench/run.sh --workload fabric_dense --seed 1 --seconds 12 --trace 0
//	bash perfbench/run.sh --compare perfbench/out/a perfbench/out/b
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
)

// outDir receives result files, traces and the one checkpoint file the
// churn window writes. It lies inside the checkout.
var outDir = filepath.Join("perfbench", "out")

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper_sweep, fabric_dense, fabric_sparse or session_churn")
		seed    = flag.Uint64("seed", 1, "workload seed; the simulator receives only the inputs generated from it")
		seconds = flag.Float64("seconds", runSeconds, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 records spans and runs the layer probes, and prints the per-layer metrics")
		compare = flag.Bool("compare", false, "compare the result directories given as arguments instead of running")
		out     = flag.String("out", outDir, "directory for result files and traces")
	)
	flag.Parse()
	outDir = *out
	runtime.LockOSThread() // threadCPU reads this thread's clock

	if *compare {
		if err := compareDirs(flag.Args(), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil || flag.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload <paper_sweep|fabric_dense|fabric_sparse|session_churn> [--seed n] [--seconds s] [--trace 0|1]")
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, *seconds, *trace != 0, &fullSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := report(res, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload verifies the workload on one instance, then times several fresh
// instances doing the same fixed work, and assembles the metrics of the
// requested mode.
func runWorkload(w *workload, seed uint64, seconds float64, trace bool, sz *sizes) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Host: readHost(),
		Metrics: map[string]metric{}, Sim: map[string]float64{}}
	tr := newTracer(trace)
	res.CalibNs[0] = calib()

	replicas, work := w.shape(sz)
	work = int(float64(work)*seconds/runSeconds + 0.5)
	if work < 1 {
		work = 1
	}
	var (
		setupSec, buildSec, estSec, warmSec []float64
		so                                  setupOut
		setupRoot                           int32
	)
	setup := func() (instance, error) {
		// Drop the previous instance and hand its memory back before
		// building the next: peak memory is then one instance's, and every
		// set-up pays for touching its memory for the first time, as a fresh
		// process does, instead of reusing whatever share of the last
		// instance's pages the scavenger has not yet returned.
		debug.FreeOSMemory()
		root := tr.begin("bench.setup")
		t0 := threadCPU()
		in, o, err := w.setup(seed, sz, variant{}, tr)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupSec = append(setupSec, (threadCPU() - t0).Seconds())
		tr.end(root)
		buildSec, estSec, warmSec = append(buildSec, o.buildSec), append(estSec, o.establishSec), append(warmSec, o.warmSec)
		so, setupRoot = o, root
		return in, nil
	}

	// Verification: the fixed window on an instance of its own. It runs
	// untraced; a traced run repeats it with spans on, which also gives the
	// tracing overhead.
	in, err := setup()
	if err != nil {
		return nil, err
	}
	tr.on = false
	win := in.window(tr, res, 1)
	tr.on = trace
	in.close()
	res.Fingerprint = fmt.Sprintf("%016x", win.fingerprint)
	for k, v := range win.sim {
		res.Sim[k] = v
	}

	// The timed replicas. Each is a fresh set-up followed by the same amount
	// of work, so they simulate exactly the same thing and differ only by
	// what the host did to them.
	var (
		accs       []*timedAcc
		timedRoot  int32
		mem0, mem1 memCounters
	)
	for r := 0; r < replicas; r++ {
		in, err := setup()
		if err != nil {
			return nil, err
		}
		acc := &timedAcc{unitSec: make([]float64, 0, 1<<13), calls: make([]float64, 0, 1<<12), runNs: make([]float64, 0, 1<<13)}
		mem0 = readMem()
		timedRoot = tr.begin("bench.timed")
		in.timed(tr, res, work, acc)
		tr.end(timedRoot)
		mem1 = readMem()
		in.audit(res)
		in.close()
		if r > 0 {
			res.check(acc.cycles == accs[0].cycles && acc.flits == accs[0].flits,
				"%s: replica %d simulated %d cycles and %d flits, replica 0 %d and %d", w.name, r, acc.cycles, acc.flits, accs[0].cycles, accs[0].flits)
		}
		accs = append(accs, acc)
	}
	res.Sim["timed_work"] = float64(work)
	res.Sim["timed_cycles"] = float64(accs[0].cycles)
	res.Sim["timed_flits"] = float64(accs[0].flits)

	if trace {
		if err := tracedExtras(w, seed, sz, tr, res, ledgerIn{
			so: so, win: win, setupRoot: setupRoot, timedRoot: timedRoot, accs: accs, mem0: mem0, mem1: mem1,
			buildSec: buildSec, estSec: estSec, warmSec: warmSec,
		}); err != nil {
			return nil, err
		}
	} else {
		// Every replica timed the same units of work and the same calls, so
		// each unit and each call has one reading per replica, and the
		// readings differ only by host interference (on the sandbox, often
		// by half between replicas of one process). Its time is the least
		// disturbed reading: the fastest. Rates are totals over those unit
		// times, percentiles are taken over those call times.
		a0 := accs[0]
		for _, a := range accs {
			res.check(len(a.calls) == len(a0.calls) && len(a.unitSec) == len(a0.unitSec),
				"%s: replicas timed %d and %d units, %d and %d calls", w.name, len(a.unitSec), len(a0.unitSec), len(a.calls), len(a0.calls))
			res.Replicas = append(res.Replicas, map[string]float64{"sim_cycles_per_s": float64(a.cycles) / a.cpuSec})
		}
		units := fastest(accs, func(a *timedAcc) []float64 { return a.unitSec })
		best := 0.0
		for _, u := range units {
			best += u
		}
		calls := fastest(accs, func(a *timedAcc) []float64 { return a.calls })
		if n := a0.unitsPerCall; n > 0 {
			calls = make([]float64, len(units)/n)
			for i, u := range units[:len(calls)*n] {
				calls[i/n] += u * 1e6
			}
		}
		set := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(endToEnd, name)} }
		set("setup_s", slices.Min(setupSec)) // identical work again: the least disturbed set-up
		set("sim_cycles_per_s", float64(a0.cycles)/best)
		set("flits_per_s", float64(a0.flits)/best)
		set("call_p99_us", quantile(calls, 0.99))
		set("call_p50_us", quantile(calls, 0.5))
		set("peak_rss_MB", peakRSSMB())
	}

	res.CalibNs[1] = calib()
	drift := (res.CalibNs[1] - res.CalibNs[0]) / res.CalibNs[0]
	res.Contended = drift > 0.10 || drift < -0.10
	if trace {
		res.Metrics["host.calib_ns"] = metric{res.CalibNs[0], "ns"}
		res.Metrics["host.calib_drift_share"] = metric{drift, "share"}
	}
	res.Correct = res.Failed == 0
	return res, checkComplete(res)
}

// fastest returns, index by index, the smallest reading any replica took of
// a series. A replica whose series is shorter is ignored past its end (the
// caller reports the mismatch).
func fastest(accs []*timedAcc, series func(*timedAcc) []float64) []float64 {
	best := slices.Clone(series(accs[0]))
	for _, a := range accs[1:] {
		for i, v := range series(a) {
			if i < len(best) && v < best[i] {
				best[i] = v
			}
		}
	}
	return best
}

// checkComplete makes sure the run reports exactly the metrics its mode
// declares.
func checkComplete(res *result) error {
	defs := res.defs()
	var missing []string
	for _, d := range defs {
		if _, ok := res.Metrics[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 || len(res.Metrics) != len(defs) {
		return fmt.Errorf("%s reported %d metrics, %d declared; missing %v", res.Workload, len(res.Metrics), len(defs), missing)
	}
	return nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// report prints every metric by name with unit, direction and bound, writes
// the full result beside the traces, and ends with the one-line JSON object
// the driver reads.
func report(res *result, w *os.File) error {
	defs := res.defs()
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	fmt.Fprintf(w, "host: %s, %d CPUs, GOMAXPROCS %d, %s\n", res.Host.GoVersion, res.Host.NumCPU, res.Host.GOMAXPROCS, res.Host.CPUModel)
	for _, d := range defs {
		bound := ""
		if !res.Trace {
			bound = fmt.Sprintf("  bound %.2f", d.Bound)
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-10s %s is better%s\n", d.Name, res.Metrics[d.Name].Value, d.Unit, d.Better, bound)
	}
	keys := make([]string, 0, len(res.Sim))
	for k := range res.Sim {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  simulated %-26s %16.10g\n", k, res.Sim[k])
	}
	fmt.Fprintf(w, "sim_fingerprint %s\n", res.Fingerprint)
	fmt.Fprintf(w, "checks and operations: %d attempted, %d failed, %d admission refusals; host calibration %.0f -> %.0f ns, contended %v\n",
		res.Attempted, res.Failed, res.Refusals, res.CalibNs[0], res.CalibNs[1], res.Contended)
	for _, f := range res.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	for _, k := range res.Known {
		fmt.Fprintln(w, "KNOWN DEFECT:", k)
	}

	full, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if res.Trace {
		mode = "trace"
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-%s.json", res.Workload, res.Seed, mode))
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}

	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func removeFile(path string) {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
