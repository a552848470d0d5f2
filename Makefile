GO ?= go
FUZZTIME ?= 30s

SOAKEVENTS ?= 1000000
SOAKKILLS ?= 25
SOAKSEED ?= 7

.PHONY: build test perfbench-test vet fmt-check ci-names api-census inline-check loc loc-check work-check mutate race fuzz-smoke soak soak-smoke check smoke-large-fabric

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

# Every exported name under internal/ must have a caller outside tests, or a
# line in .github/api-census.allow giving one of three reasons: an interface
# it is called through, the perfbench probe that alone calls it, or the paper
# feature it is kept for with the test that exercises it. The census lives
# in .github/, outside ./..., so `go build ./...` and `go test ./...` never
# compile it.
api-census:
	$(GO) run ./.github/apicensus

# The mutation table (.github/mutants.json): each mutant is one exact edit
# to one source file and the tests that must kill it. The runner applies
# the edit through `go test -overlay` (the tree is never written), requires
# the tests to pass without it and every one of them to fail with it, and
# prints a kill table; a mutant that survives fails the target. About 30 s
# on two cores once the build cache is warm.
mutate:
	$(GO) run ./.github/mutate

# traffic.Calendar.Visit must stay inlined where the engines inject
# (router engine.go and packets.go, network datapath.go's two): a gated
# calendar with nothing held or due then costs its caller one compare,
# which is what fabric_sparse's cost rests on. And the link scheduler's
# priority selection makes no call per eligible VC: the record, round-stamp
# and vector-word accessors it reads through, Biased.Priority and the excess
# election's tally must be inlined in internal/sched/link.go.
inline-check:
	@n=$$($(GO) build -gcflags=-m ./internal/router ./internal/network 2>&1 | \
		grep -cE '^internal/(router/(engine|packets)|network/datapath)\.go:.*inlining call to traffic\.\(\*Calendar\[.*\]\)\.Visit$$'); \
	if [ "$$n" -ne 4 ]; then \
		echo "inline-check: Calendar.Visit is inlined at $$n of the 4 injection call sites" >&2; exit 1; \
	fi
	@m=$$($(GO) build -gcflags=-m ./internal/sched 2>&1 | grep '^internal/sched/link\.go:.*inlining call to'); \
	for f in 'vcm\.\(\*Memory\)\.Records' 'vcm\.\(\*Memory\)\.Round' 'vcm\.\(\*VCState\)\.ServicedIn' \
		'bitvec\.\(\*Vector\)\.Words' 'classify' 'Biased\.Priority' '\(\*excessTally\)\.note'; do \
		echo "$$m" | grep -qE "inlining call to $$f$$" || { \
			echo "inline-check: $$f is not inlined in internal/sched/link.go" >&2; exit 1; }; \
	done

# Non-test Go lines of the engine packages and of everything outside
# perfbench/ and .github/: the numbers ROADMAP's "net-negative line counts
# are a goal" is measured by. The CI tooling under .github/ is counted on a
# line of its own.
loc:
	@for p in internal/network internal/router internal/topology internal/traffic internal/flit internal/sched; do \
		printf '%s %s\n' $$p $$(ls $$p/*.go | grep -v _test.go | xargs cat | wc -l); \
	done
	@printf 'total %s\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' ! -path './.github/*' | xargs cat | wc -l)
	@printf '.github %s\n' $$(find ./.github -name '*.go' | xargs cat | wc -l)

# The number ROADMAP's shrink item tracks can only go down: non-test lines
# of internal/network + internal/router, counted as `loc` counts them, may
# not exceed the ceiling — lower it to the new sum whenever a PR shrinks
# them (after the 16-bit geometry bound: 4,897 + 1,623; VC storage on
# first use kept the sum, 4,896 + 1,624; the arena-carved restore,
# 4,895 + 1,624; rate admission in internal/admission, the Core's series
# registered once and the unread quantiles gone, 4,886 + 1,562; checkpoint
# format 5, walked without closures and split along its sections, 4,883 +
# 1,562; a flit carrying only what the model reads, 4,847 + 1,535; credits
# routed home by the reverse channel mapping, 4,815 + 1,535; a blocked
# session refilled at the pop that frees its VC, 4,805 + 1,536, the ceiling
# left at 6,350; internal/crossbar and every uncalled export deleted, the
# switch state read from the grants, 4,797 + 1,516; one establishment path,
# OpenBatch a loop over open and the batch's pre-check tables gone, 4,656 +
# 1,516).
LOC_CEILING = 6172

loc-check:
	@n=$$(cat $$(ls internal/network/*.go internal/router/*.go | grep -v _test.go) | wc -l); \
	if [ $$n -gt $(LOC_CEILING) ]; then \
		echo "loc-check: internal/network + internal/router have $$n non-test lines, the ceiling is $(LOC_CEILING)" >&2; exit 1; \
	fi

# The four work goldens: exact counts of what the scheduling stages and the
# routing unit do on the dense and the sparse fabric, under control-plane
# churn (opens, drained closes, a bandwidth change, a link fault, a
# checkpoint restore) and on the paper-sweep router. They do not depend on
# the host, so a change that adds work per delivered flit fails here on any
# machine unless it re-records the golden and says why.
work-check:
	$(GO) test -count=1 -run='TestDenseWorkGolden|TestSparseWorkGolden|TestChurnWorkGolden' ./internal/network
	$(GO) test -count=1 -run='^TestRouterWorkGolden$$' ./internal/router

# The packages that start goroutines: the daemon, the metrics server and
# the sweep pool. The fabric cycle and everything under it is serial. The
# daemon's hostile-request and periodic-checkpoint tests run again, so their
# control traffic races the periodic snapshots and the SIGTERM drain more
# than once.
race:
	$(GO) test -race ./cmd/mmrnet ./internal/metrics ./internal/exp
	$(GO) test -race -count=3 -run='TestDaemonHostileRequests|TestDaemonPeriodicCheckpointsRace' ./cmd/mmrnet

# Short coverage-guided fuzz budgets: the network churn property (opens,
# retried opens, teardowns, link failures/repairs interleaved), the wake table
# against the activity scans it replaced under the same operation stream,
# the checkpoint decoder against damaged payloads (its seeds are 80 kB
# each, so minimizing a new input is capped or it eats the budget), a
# gated router against a NoIdleSkip one under one operation stream, a
# source's one-call gap replay against per-cycle ticks, a forecast's
# closed-form accumulator sum against the add loop it replaced, a source
# calendar's visits against a scanned table, the link
# scheduler's one-pass selection against its sorted reference, the EPB
# search against its map-based reference, the VC memory's mirrors
# (status vectors, Busy bit, head stamp, round-stamped accounts) against a
# plain model from a memory without records on, the switch arbiters' matchings against the properties a
# cycle's service matrix must have (sub-permutation, maximum, maximal), and
# the priority and PIM arbiters against the loops they replaced (grants and
# RNG position).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzNetworkChurn -fuzztime=$(FUZZTIME) ./internal/network
	$(GO) test -run='^$$' -fuzz=FuzzWakeTableMatchesScan -fuzztime=$(FUZZTIME) ./internal/network
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/network
	$(GO) test -run='^$$' -fuzz=FuzzRouterGatingEquivalence -fuzztime=$(FUZZTIME) ./internal/router
	$(GO) test -run='^$$' -fuzz=FuzzAdvanceToMatchesTicks -fuzztime=$(FUZZTIME) ./internal/traffic
	$(GO) test -run='^$$' -fuzz=FuzzSumBelowOne -fuzztime=$(FUZZTIME) ./internal/traffic
	$(GO) test -run='^$$' -fuzz=FuzzCalendarMatchesScan -fuzztime=$(FUZZTIME) ./internal/traffic
	$(GO) test -run='^$$' -fuzz=FuzzCandidatesMatchesSortedReference -fuzztime=$(FUZZTIME) ./internal/sched
	$(GO) test -run='^$$' -fuzz=FuzzSearchIntoMatchesReference -fuzztime=$(FUZZTIME) ./internal/routing
	$(GO) test -run='^$$' -fuzz=FuzzMemoryMirrors -fuzztime=$(FUZZTIME) ./internal/vcm
	$(GO) test -run='^$$' -fuzz=FuzzArbiterMatching -fuzztime=$(FUZZTIME) ./internal/sched
	$(GO) test -run='^$$' -fuzz=FuzzArbitersMatchReference -fuzztime=$(FUZZTIME) ./internal/sched

# Million-event churn soak: Poisson session arrivals/departures, flash
# crowds, regional outages, and kill+restore cycles from checkpoints at
# random points, with conservation and invariant audits after every
# restore. The acceptance run for long-lived fabric operation (several
# minutes); soak-smoke is the CI-sized budget.
soak:
	$(GO) run ./cmd/mmrsoak -events $(SOAKEVENTS) -kills $(SOAKKILLS) -seed $(SOAKSEED)

soak-smoke:
	$(GO) run ./cmd/mmrsoak -events 20000 -kills 3 -seed $(SOAKSEED) -report-every 0

# Large-fabric smoke: a 1280-router fat tree brought up with a batched
# ≥100k-session establishment, stepped, checkpointed and audited under a
# bounded heap. Skipped under -short; a few seconds and ~0.37 GB on a laptop.
smoke-large-fabric:
	$(GO) test -run='^TestLargeFabricSmoke$$' -v -timeout 10m ./internal/network

check: vet fmt-check ci-names api-census inline-check loc-check work-check mutate test perfbench-test race fuzz-smoke soak-smoke
