package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"
	"time"
)

// sizes holds every size constant of the benchmark. Workload shapes (fabric,
// traffic mix, event mix) are fixed in the code; only cycle and event counts
// live here, so the toy preset used by the tests runs the same program.
type sizes struct {
	// A run times several fresh set-ups (replicas) of the workload, each
	// doing the same fixed amount of work: passes over the cells, Run calls,
	// churn events. The amounts are sized so that a workload's replicas
	// together take about runSeconds on the 2-vCPU 2.1 GHz sandbox;
	// --seconds scales them. Workloads with a cheap set-up take more,
	// shorter replicas.
	paperReplicas, denseReplicas, sparseReplicas, churnReplicas int
	paperPasses, denseCalls, sparseCalls, churnEvents           int

	paperWarm, paperWindow, paperSeg int64 // cycles per cell

	// A fabric's timed call is Run(seg).
	fabricK                             int
	denseWarm, denseWindow, denseSeg    int64
	sparseWarm, sparseWindow, sparseSeg int64
	sparseSessions, sparsePods          int

	bringupK, bringupShells, bringupHot int // bring-up requests = nodes×(shells+hot)
	churnK, churnLive                   int
	churnWarm                           int64
	// The churn script repeats every periodEvents events: one checkpoint
	// (untimed), one fault, two explicit audits. Events are timed in units
	// of unitEvents; the fixed window is one period.
	periodEvents, unitEvents int
	faultCycles, drainLimit  int64

	probeReps int // timed batches per probe; the median batch is reported

	// minCoverage is the share of the timed phase its top-level spans must
	// cover. At toy size a call lasts a microsecond or two and the clock
	// reads around it outweigh it, so the toy preset asks for nothing.
	minCoverage float64
}

var fullSizes = sizes{
	paperReplicas: 8, denseReplicas: 5, sparseReplicas: 10, churnReplicas: 8,
	paperPasses: 25, denseCalls: 640, sparseCalls: 480, churnEvents: 3200,
	paperWarm: 2000, paperWindow: 3000, paperSeg: 100,
	fabricK:   16,
	denseWarm: 300, denseWindow: 128, denseSeg: 1,
	sparseWarm: 2000, sparseWindow: 20000, sparseSeg: 64,
	sparseSessions: 512, sparsePods: 4,
	bringupK: 16, bringupShells: 40, bringupHot: 120,
	churnK: 8, churnLive: 400, churnWarm: 1000,
	periodEvents: 2000, unitEvents: 25,
	faultCycles: 500, drainLimit: 2000,
	probeReps: 9, minCoverage: 0.95,
}

var toySizes = sizes{
	paperReplicas: 2, denseReplicas: 2, sparseReplicas: 2, churnReplicas: 2,
	paperPasses: 2, denseCalls: 64, sparseCalls: 16, churnEvents: 200,
	paperWarm: 200, paperWindow: 800, paperSeg: 100,
	fabricK:   4,
	denseWarm: 200, denseWindow: 200, denseSeg: 1,
	sparseWarm: 200, sparseWindow: 1000, sparseSeg: 64,
	sparseSessions: 24, sparsePods: 2,
	bringupK: 4, bringupShells: 4, bringupHot: 12,
	churnK: 4, churnLive: 40, churnWarm: 100,
	periodEvents: 200, unitEvents: 10,
	faultCycles: 100, drainLimit: 2000,
	probeReps: 2, minCoverage: 0,
}

// variant selects an execution strategy for a set-up. The simulated results
// must not depend on it; the traced run checks that they do not.
type variant struct {
	noIdleSkip bool
}

// setupOut is what one set-up reports about itself.
type setupOut struct {
	buildSec, establishSec, warmSec float64
	requests, accepted              int   // establishment requests submitted and admitted
	warmCycles                      int64 // simulated cycles of warm-up
	backtracks                      float64
}

// windowOut is the outcome of the fixed window: a seed-determined stretch of
// work whose simulated results repeat exactly.
type windowOut struct {
	fingerprint uint64
	wallSec     float64 // elapsed
	cpuSec      float64 // CPU time of the driving thread: the serial windows' cost
	cycles      int64
	sim         map[string]float64 // simulated statistics, exact for a seed
}

// timedAcc accumulates one replica's timed phase. The timed work is cut into
// units of a millisecond or so — one Run call on the simulation workloads, a
// couple of dozen events on the churn — and every unit's time is kept, so
// that a unit can be compared with the same unit of the other replicas.
type timedAcc struct {
	unitSec   []float64 // CPU time of the driving thread, unit by unit
	cpuSec    float64   // their sum
	cycles    int64     // simulated flit cycles advanced
	flits     int64     // stream flits + best-effort packets delivered
	linkFlits int64     // flit-hops
	fused     int64     // cycles the fused drain kernel ran
	// The timed calls whose latency is reported: either unitsPerCall
	// consecutive units each (a Run call, a pass over the paper's cells), or
	// a series of their own in µs (the churn's Opens, by the wall clock).
	unitsPerCall int
	calls        []float64
	runNs        []float64 // ns per simulated cycle of each Run call
	ops          int64     // session operations (churn only)

	// Checkpoint phases (churn only): sealed bytes, and the time to encode
	// and seal them and to open and restore them.
	ckptBytes                  int64
	ckptEncodeSec, ckptLoadSec float64
}

// unit records one unit of timed work.
func (a *timedAcc) unit(cpu time.Duration) {
	a.unitSec = append(a.unitSec, cpu.Seconds())
	a.cpuSec += cpu.Seconds()
}

// An instance is one set-up workload, ready to run.
type instance interface {
	// window runs the fixed window with the given worker count (1 or 2).
	window(tr *tracer, res *result, workers int) windowOut
	// timed does the given amount of work, in the workload's own measure.
	timed(tr *tracer, res *result, work int, acc *timedAcc)
	// audit checks the instance's invariants after the timed phase.
	audit(res *result)
	// gatingExact reports whether the window's results must be identical
	// with NoIdleSkip set.
	gatingExact() bool
	close()
}

type workload struct {
	name  string
	why   string
	setup func(seed uint64, sz *sizes, v variant, tr *tracer) (instance, setupOut, error)
	shape func(sz *sizes) (replicas, work int) // timed replicas, and the work in each
}

var workloads = []workload{
	{"paper_sweep", "Figures 3-5: the single 8x8 router over 7 scheduler variants x 3 loads; only internal/router and below run, so a fabric-only change must not move it", setupPaper, func(sz *sizes) (int, int) { return sz.paperReplicas, sz.paperPasses }},
	{"fabric_dense", "FatTree(16) with every edge host injecting 0.6 of its link: every node active every cycle, so deliver/schedule/commit dominate and activity gating can only cost", setupDense, func(sz *sizes) (int, int) { return sz.denseReplicas, sz.denseCalls }},
	{"fabric_sparse", "the same FatTree(16) with 512 slow sessions in 4 of 16 pods: most nodes idle, so active-set build, idle fast-forward and the drain kernels do the work", setupSparse, func(sz *sizes) (int, int) { return sz.sparseReplicas, sz.sparseCalls }},
	{"session_churn", "control plane with shipped defaults: batched bring-up, open/close/modify/query churn, link faults and checkpoint restore; the datapath runs about 5 light cycles per event", setupChurn, func(sz *sizes) (int, int) { return sz.churnReplicas, sz.churnEvents }},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// result is everything one run reports.
type result struct {
	Workload    string               `json:"workload"`
	Seed        uint64               `json:"seed"`
	Seconds     float64              `json:"seconds"`
	Trace       bool                 `json:"trace"`
	Correct     bool                 `json:"correct"`
	Attempted   int64                `json:"attempted"`
	Failed      int64                `json:"failed"`
	Fingerprint string               `json:"sim_fingerprint"`
	Metrics     map[string]metric    `json:"metrics"`
	Sim         map[string]float64   `json:"simulated"`
	Host        hostInfo             `json:"host"`
	CalibNs     [2]float64           `json:"host_calib_ns"`
	Contended   bool                 `json:"contended"`
	Failures    []string             `json:"failures,omitempty"`
	Known       []string             `json:"known_defects,omitempty"` // simulator defects the run met and is told to tolerate
	Refusals    int64                `json:"admission_refusals"`
	Replicas    []map[string]float64 `json:"replicas,omitempty"` // each replica's own end-to-end readings
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// defs returns the metrics a run of this mode reports.
func (r *result) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// check records one verification check.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// op records one operation's outcome. An admission refusal is an answer,
// not a failure; any other error is.
func (r *result) op(err error) {
	r.Attempted++
	switch {
	case err == nil:
	case isRefusal(err):
		r.Refusals++
	default:
		r.fail("operation failed: %v", err)
	}
}

// isRefusal reports whether err is the fabric declining a request for lack
// of capacity. The simulator returns these as formatted strings.
func isRefusal(err error) bool {
	msg := err.Error()
	for _, s := range []string{"no free VC", "cannot admit", "cannot grow", "no minimal path with free resources",
		"border capacity", "no legal route", "over admission quota", "quota"} {
		if strings.Contains(msg, s) {
			return true
		}
	}
	return false
}

// fingerprinter hashes simulated values into the run's sim_fingerprint.
type fingerprinter struct{ h hash.Hash64 }

func newFingerprinter() fingerprinter { return fingerprinter{fnv.New64a()} }

func (f fingerprinter) bytes(b []byte) { f.h.Write(b) }

func (f fingerprinter) u64(v uint64) { f.h.Write(binary.LittleEndian.AppendUint64(nil, v)) }

func (f fingerprinter) f64(v float64) { f.u64(math.Float64bits(v)) }
func (f fingerprinter) sum() uint64   { return f.h.Sum64() }
