GO ?= go

.PHONY: build test vet race bench check golden golden-check fleet chaos overload stress churn multipath grayfail crashsafe pressure telemetry

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Bench: every Go benchmark (scheduler drain bare vs instrumented,
# registry hot path, transfer kernels), then the performance ledger
# (detourledger/): four workloads, end-to-end and per-layer metrics,
# written to ledger.json.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...
	bash detourledger/run.sh

fleet:
	$(GO) run ./cmd/detourbench -experiment fleet

# Chaos: the fault-injection tests race-clean, then the fleet trace
# replayed under the canned fault schedule.
chaos:
	$(GO) test -race ./internal/faults/ ./internal/sched/
	$(GO) run ./cmd/detourbench -experiment chaos

# Overload: the flash-crowd trace replayed with and without the
# overload-control stack (admission control, fair queuing, shedding,
# hedging, brownout), comparing goodput and fairness.
overload:
	$(GO) run ./cmd/detourbench -experiment overload

# Churn: the routing-dynamics tests race-clean (staged convergence,
# push invalidation, make-before-break reroute/reattach), then the BGP
# reconvergence storm replayed with and without the churn stack.
churn:
	$(GO) test -race ./internal/bgppol/ ./internal/sched/ ./internal/core/ ./internal/replay/
	$(GO) run ./cmd/detourbench -experiment churn

# Multipath: the striping tests race-clean (chunk ledger, hedging,
# drains, churn digest property), then the striped-vs-single replay.
multipath:
	$(GO) test -race ./internal/multipath/ ./internal/stats/ ./internal/sched/ ./internal/replay/
	$(GO) run ./cmd/detourbench -experiment multipath

# Grayfail: the gray-failure detection tests race-clean (stall
# watchdogs, outlier ejection with canary re-admission, retry budgets),
# then the silent-degradation replay with and without the health stack.
grayfail:
	$(GO) test -race ./internal/health/ ./internal/faults/ ./internal/sched/ ./internal/replay/
	$(GO) run ./cmd/detourbench -experiment grayfail

# Crashsafe: the crash-consistency tests race-clean (journal framing,
# replay fold, torn tails, snapshot equivalence, the full crash-point
# sweep), the journal record-decode fuzzer holds up for a short smoke
# run, then the sweep replay: kill at every crash point, restart on the
# journal, converge byte-identical with zero duplicate commits.
crashsafe:
	$(GO) test -race ./internal/journal/ ./internal/sched/ ./internal/replay/
	$(GO) test -fuzz=FuzzScan -fuzztime=5s ./internal/journal
	$(GO) run ./cmd/detourbench -experiment crashsafe

# Pressure: the storage-exhaustion tests race-clean (staging-disk
# admission/eviction/conservation, quota reclaim/spill/park ladder,
# journal ENOSPC compaction and degraded mode), then the replay:
# disks fill, quota drains, the journal device fills — the full stack
# vs the no-mitigation ablation.
pressure:
	$(GO) test -race ./internal/rsyncx/ ./internal/sched/ ./internal/cloudsim/ ./internal/journal/ ./internal/replay/
	$(GO) run ./cmd/detourbench -experiment pressure

# Telemetry: the observability-plane tests race-clean (registry hot
# path, histogram quantiles, sampler wraparound/pause, flight-recorder
# retention, determinism, no-observer-effect), then the instrumented
# flash-crowd replay: live dumps, dashboard sparklines, failed-job
# decision traces, Prometheus dump.
telemetry:
	$(GO) test -race ./internal/telemetry/ ./internal/sched/ ./internal/replay/
	$(GO) run ./cmd/detourbench -experiment telemetry

# Stress: the scheduler suite repeated under the race detector to
# shake out ordering-dependent bugs in the queue and overload layer,
# with the telemetry registry (the scheduler's counters are its
# lock-free atomics, read outside the scheduler lock), the replay
# driver that runs every mode through it, and simproc (the coroutine
# switch is the happens-before edge between the driver and each
# process).
stress:
	$(GO) test -race -count=5 ./internal/sched/ ./internal/telemetry/ ./internal/replay/ ./internal/simproc/

# Golden outputs: the stdout of every single-driver example, of the
# seven deterministic scheduler replays and of the 15 detourbench
# figures and tables, pinned byte for byte under testdata/golden/. The
# replays and figures are compared by cmd/detourbench's TestGolden,
# which tier-1 `go test ./...` runs (the replays keep their
# example-<mode>.txt file names; chaos and fleet are left out: their
# worker pools interleave for real, so two runs differ). The examples
# are compared here. `make golden` rewrites every file after an
# intended output change; `make golden-check` compares.
GOLDEN_EXAMPLES = detour-selection overlay-monitor provider-sweep quickstart science-dmz
GOLDEN_BIN = .golden-bin
GOLDEN_BUILD = $(GO) build -o $(GOLDEN_BIN)/ $(addprefix ./examples/,$(GOLDEN_EXAMPLES))

golden:
	$(GOLDEN_BUILD)
	mkdir -p testdata/golden
	for e in $(GOLDEN_EXAMPLES); do $(GOLDEN_BIN)/$$e >testdata/golden/example-$$e.txt || exit 1; done
	$(GO) test -count=1 -run '^TestGolden$$' ./cmd/detourbench -update

golden-check:
	$(GOLDEN_BUILD)
	for e in $(GOLDEN_EXAMPLES); do $(GOLDEN_BIN)/$$e >$(GOLDEN_BIN)/out.txt && \
		cmp $(GOLDEN_BIN)/out.txt testdata/golden/example-$$e.txt || exit 1; done
	$(GO) test -count=1 -run '^TestGolden$$' ./cmd/detourbench

# The gate PRs must pass: every Go file is gofmt-clean, everything
# compiles, vets clean, the full test suite (including the
# really-concurrent scheduler) is race-clean, the nested detourledger
# module (which `./...` skips) compiles and vets against the scheduler,
# the simulator's benchmarks (fluid, xtraffic, simclock) and the journal
# checkpoint and dynamic-route benchmarks, which `go test` only compiles,
# run one iteration each, the delta-encoding, journal-decode,
# journal-encode and Content-Range fuzzers hold up
# for a short smoke run, the chaos and overload replays complete, and every
# deterministic example, every deterministic scheduler replay — for
# telemetry the whole observability plane: metric dumps, time series,
# sparklines, and flight-recorder traces — and every paper figure/table
# matches its golden output. The eviction-safety suites get an explicit race pass
# (cheap, and kept even if the blanket ./... leg above is ever
# narrowed).
check:
	test -z "$$(gofmt -l .)"
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race ./...
	$(GO) -C detourledger vet ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/fluid ./internal/xtraffic ./internal/simclock
	$(GO) test -run '^$$' -bench 'BenchmarkNoteCkpt|BenchmarkRoutedLinksDynamic' -benchtime 1x ./internal/sched ./internal/bgppol
	$(GO) test -race ./internal/rsyncx/ ./internal/sched/
	$(GO) test -fuzz=FuzzDelta -fuzztime=10s ./internal/rsyncx
	$(GO) test -fuzz=FuzzScan -fuzztime=5s ./internal/journal
	$(GO) test -fuzz=FuzzJournalRecord -fuzztime=5s ./internal/sched
	$(GO) test -fuzz=FuzzParseContentRange -fuzztime=5s ./internal/cloudsim
	$(GO) run ./cmd/detourbench -experiment chaos >/dev/null
	$(GO) run ./cmd/detourbench -experiment overload >/dev/null
	$(MAKE) --no-print-directory golden-check
