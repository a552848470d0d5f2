GO ?= go
FUZZTIME ?= 30s
BENCHTIME ?= 2s
BENCHTOL ?= 0.10
# The network-cycle gate tolerates more: barrier-heavy benchmarks are
# sensitive to host scheduling noise, especially on shared runners.
NETBENCHTOL ?= 0.30
BENCHFILE ?= BENCH_PR2.json
NETBENCHFILE ?= BENCH_PR3.json
SPARSEBENCHFILE ?= BENCH_PR5.json
SCALEBENCHFILE ?= BENCH_PR10.json
# Worker width the scaling lane is measured at. Pinning GOMAXPROCS makes
# the recorded host shape (and therefore which rows the -scale gate
# treats as gated vs informational) reproducible across machines.
SCALEPROCS ?= 4
# Parallel-efficiency floor for gated scaling rows:
# eff(w) = ns(1)/(ns(w)·w) must stay at or above this on hosts with
# enough CPUs to exercise the width (smaller hosts report the rows as
# informational — see cmd/benchjson -scale).
MINEFF ?= 0.35
# Hot-path microbenchmarks gated by bench-check; figure benchmarks are
# recorded by `make bench` but not gated (multi-second sims, noisier).
MICROBENCH = RouterStep|RouterStepBacklogged|PriorityArbiter|LinkScheduler|EstablishWorkload
# Network-cycle benchmarks: the serial step plus the worker-pool scaling
# points (w=2/4/8 sub-benchmarks), gated against $(NETBENCHFILE).
NETBENCH = NetworkStep|NetworkStepParallel
# Sparse/idle benchmarks: the activity-gated low-load step, its ungated
# reference (the ≥3× speedup denominator) and whole-clock fast-forward
# through Run, gated against $(SPARSEBENCHFILE).
SPARSEBENCH = NetworkStepSparse|NetworkStepSparseNoSkip|NetworkRunIdleGaps
# Worker-scaling curve (w=1/2/4/GOMAXPROCS sub-benchmarks) plus the
# sparse step, recorded together into $(SCALEBENCHFILE) so the SoA
# datapath's speedup and its scaling shape live in one section with
# host provenance.
SCALEBENCH = NetworkStepScaling|NetworkStepSparse
SCALEFAMILY = NetworkStepScaling
# Fabric-footprint and batched-establishment benchmarks, recorded into
# $(MEMBENCHFILE). The footprint rows are gated as *absolute* budgets
# (benchjson -max), not relative deltas: the question is whether the
# ROADMAP's 4k-router / 1M-flow fabric fits in a few GB, and
# 4096·600000 + 1e6·1200 ≈ 3.7 GB keeps that true with ~2× headroom
# over the measured values.
MEMBENCH = FabricFootprint|OpenSerial|OpenBatch
MEMBENCHFILE = BENCH_PR8.json
MEMBUDGETS = bytes/router=600000,bytes/flow=1200

SOAKEVENTS ?= 1000000
SOAKKILLS ?= 25
SOAKSEED ?= 7

.PHONY: build test perfbench-test vet fmt-check ci-names loc race fuzz-smoke soak soak-smoke check bench bench-check bench-net bench-net-check bench-sparse bench-sparse-check bench-scale bench-scale-check bench-mem bench-mem-check smoke-large-fabric

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is a module of its own (mmr/perfbench), so `go build ./...`
# and `go test ./...` above never compile it: vet it and run every
# workload and probe at toy size.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	test -z "$$(gofmt -l .)"

# `go test -run` passes silently when a pattern matches nothing: check
# that every -run (and -fuzz) pattern in CI and in this file still names
# a test of its package.
ci-names:
	GO=$(GO) sh .github/ci-names.sh .github/workflows/ci.yml Makefile

# Non-test Go lines of the two engine packages: the number ROADMAP's
# "net-negative line counts are a goal" is measured by.
loc:
	@for p in internal/network internal/router; do \
		printf '%s %s\n' $$p $$(ls $$p/*.go | grep -v _test.go | xargs cat | wc -l); \
	done

race:
	$(GO) test -race ./...

# Short coverage-guided fuzz budgets: the network churn property (opens,
# probes, teardowns, link failures/repairs interleaved), the wake table
# against the activity scans it replaced under the same operation stream,
# the checkpoint decoder against damaged payloads (its seeds are 80 kB
# each, so minimizing a new input is capped or it eats the budget), a
# source's one-call gap replay against per-cycle ticks, the link
# scheduler's one-pass selection against its sorted reference, and the
# EPB search against its map-based reference.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzNetworkChurn -fuzztime=$(FUZZTIME) ./internal/network
	$(GO) test -run='^$$' -fuzz=FuzzWakeTableMatchesScan -fuzztime=$(FUZZTIME) ./internal/network
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/network
	$(GO) test -run='^$$' -fuzz=FuzzAdvanceToMatchesTicks -fuzztime=$(FUZZTIME) ./internal/traffic
	$(GO) test -run='^$$' -fuzz=FuzzCandidatesMatchesSortedReference -fuzztime=$(FUZZTIME) ./internal/sched
	$(GO) test -run='^$$' -fuzz=FuzzSearchIntoMatchesReference -fuzztime=$(FUZZTIME) ./internal/routing

# Million-event churn soak: Poisson session arrivals/departures, flash
# crowds, regional outages, and kill+restore cycles from checkpoints at
# random points, with conservation and invariant audits after every
# restore. The acceptance run for long-lived fabric operation (several
# minutes); soak-smoke is the CI-sized budget.
soak:
	$(GO) run ./cmd/mmrsoak -events $(SOAKEVENTS) -kills $(SOAKKILLS) -seed $(SOAKSEED)

soak-smoke:
	$(GO) run ./cmd/mmrsoak -events 20000 -kills 3 -seed $(SOAKSEED) -report-every 0

# Run the microbenchmarks and figure benchmarks with allocation stats and
# record them into $(BENCHFILE) under the "current" section (the "pre-pr"
# baseline section is preserved).
bench:
	{ $(GO) test -run='^$$' -bench='^Benchmark($(MICROBENCH))$$' -benchmem -benchtime=$(BENCHTIME) . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkFigure[345]$$' -benchmem -benchtime=1x . ; } \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -o $(BENCHFILE) -section current

# Regression gate: rerun the microbenchmarks and fail if ns/op regresses
# more than BENCHTOL vs the committed baseline, or if a zero-alloc
# benchmark starts allocating. (Also part of the PR checklist: run
# `make bench-check` alongside `make check` before merging.)
# -allow-missing: this gate deliberately reruns only the microbenchmarks,
# while the baseline section also records the (ungated) figure
# benchmarks; absences are reported as warnings instead of failures.
bench-check: bench-net-check bench-sparse-check bench-scale-check bench-mem-check
	$(GO) test -run='^$$' -bench='^Benchmark($(MICROBENCH))$$' -benchmem -benchtime=$(BENCHTIME) . \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -check -baseline $(BENCHFILE) -against current -tol $(BENCHTOL) -allow-missing

# Record serial-vs-parallel network stepping into $(NETBENCHFILE)'s
# "current" section (the "pre-pr" section preserves the pre-parallelism
# serial engine for comparison). Scaling beyond w=1 needs real cores:
# on a single-CPU host the parallel rows only measure barrier overhead.
bench-net:
	$(GO) test -run='^$$' -bench='^Benchmark($(NETBENCH))$$' -benchmem -benchtime=$(BENCHTIME) ./internal/network \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -o $(NETBENCHFILE) -section current

# Gate the network cycle: the serial step must stay within NETBENCHTOL of
# the committed number and remain allocation-free. The w>1 rows are
# recorded by bench-net but not gated — on a shared or single-CPU runner
# they measure scheduler noise, not the simulator (the determinism and
# steady-state-allocation tests cover parallel correctness instead).
bench-net-check:
	$(GO) test -run='^$$' -bench='^BenchmarkNetworkStep$$' -benchmem -benchtime=$(BENCHTIME) ./internal/network \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -check -baseline $(NETBENCHFILE) -against current -tol $(NETBENCHTOL) -allow-missing

# Record the sparse-load and idle-gap benchmarks (activity gating / fast-
# forward hot paths) into $(SPARSEBENCHFILE)'s "current" section. The
# NoSkip row is the ungated reference: Sparse must beat it ≥3× on the
# same workload or the gating machinery is not earning its complexity.
bench-sparse:
	$(GO) test -run='^$$' -bench='^Benchmark($(SPARSEBENCH))$$' -benchmem -benchtime=$(BENCHTIME) ./internal/network \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -o $(SPARSEBENCHFILE) -section current

# Gate the sparse cycle and idle-gap fast-forward against the committed
# baseline: ns/op within NETBENCHTOL (same noise profile as the network
# gate) and still allocation-free in steady state.
bench-sparse-check:
	$(GO) test -run='^$$' -bench='^Benchmark($(SPARSEBENCH))$$' -benchmem -benchtime=$(BENCHTIME) ./internal/network \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -check -baseline $(SPARSEBENCHFILE) -against current -tol $(NETBENCHTOL) -allow-missing

# Record the worker-scaling curve and the sparse step into
# $(SCALEBENCHFILE)'s "current" section, stamped with host shape
# (NumCPU/GOMAXPROCS/cpu model) so the numbers carry their provenance.
bench-scale:
	GOMAXPROCS=$(SCALEPROCS) $(GO) test -run='^$$' -bench='^Benchmark($(SCALEBENCH))$$' -benchmem -benchtime=$(BENCHTIME) ./internal/network \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -o $(SCALEBENCHFILE) -section current

# Gate parallel efficiency instead of raw ns/op: every w=N row the
# host can exercise must keep eff(w) = ns(1)/(ns(w)·w) ≥ MINEFF and
# stay allocation-free; wider-than-host rows print as informational.
# Unlike the ns/op gates this one is host-relative (normalized by the
# run's own serial row), so it cannot be fooled by a fast machine or
# flaked by a slow one.
bench-scale-check:
	GOMAXPROCS=$(SCALEPROCS) $(GO) test -run='^$$' -bench='^Benchmark$(SCALEFAMILY)$$' -benchmem -benchtime=$(BENCHTIME) ./internal/network \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -scale $(SCALEFAMILY) -min-eff $(MINEFF)

# Record the fabric-footprint (bytes/router, bytes/flow on fat trees)
# and serial-vs-batched establishment benchmarks into $(MEMBENCHFILE).
# Footprint rows rebuild whole fabrics per iteration, so they run 1x;
# the establishment pair uses the normal budget.
bench-mem:
	{ $(GO) test -run='^$$' -bench='^BenchmarkFabricFootprint$$' -benchtime=1x ./internal/network ; \
	  $(GO) test -run='^$$' -bench='^Benchmark(OpenSerial|OpenBatch)$$' -benchmem -benchtime=$(BENCHTIME) ./internal/network ; } \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -o $(MEMBENCHFILE) -section current

# Gate the footprint as an absolute budget (MEMBUDGETS) plus the usual
# relative ns/op check on the establishment pair. The budget side is
# host-independent — bytes are bytes — so it gates everywhere, even on
# runners too noisy for timing tolerances.
bench-mem-check:
	{ $(GO) test -run='^$$' -bench='^BenchmarkFabricFootprint$$' -benchtime=1x ./internal/network ; \
	  $(GO) test -run='^$$' -bench='^Benchmark(OpenSerial|OpenBatch)$$' -benchmem -benchtime=$(BENCHTIME) ./internal/network ; } \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -check -baseline $(MEMBENCHFILE) -against current -tol $(NETBENCHTOL) -allow-missing -max '$(MEMBUDGETS)'

# Large-fabric smoke: a 1280-router fat tree brought up with a batched
# ≥100k-session establishment, stepped, and checkpointed under a
# bounded heap. Skipped under -short; ~20 s and ~2 GB on a laptop.
smoke-large-fabric:
	$(GO) test -run='^TestLargeFabricSmoke$$' -v -timeout 10m ./internal/network

check: vet fmt-check ci-names test perfbench-test race fuzz-smoke soak-smoke
