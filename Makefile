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
# registry hot path, transfer kernels), then the seeded detourbench
# sweep that writes the machine-readable BENCH_10.json (storm goodput,
# drain wall time with/without telemetry, dispatch ns/job).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...
	$(GO) run ./cmd/detourbench -experiment bench -out BENCH_10.json

fleet:
	$(GO) run ./examples/fleet

# Chaos: the fault-injection tests race-clean, then the fleet trace
# replayed under the canned fault schedule.
chaos:
	$(GO) test -race ./internal/faults/ ./internal/sched/
	$(GO) run ./examples/chaos

# Overload: the flash-crowd trace replayed with and without the
# overload-control stack (admission control, fair queuing, shedding,
# hedging, brownout), comparing goodput and fairness.
overload:
	$(GO) run ./examples/overload

# Churn: the routing-dynamics tests race-clean (staged convergence,
# push invalidation, make-before-break reroute/reattach), then the BGP
# reconvergence storm replayed with and without the churn stack.
churn:
	$(GO) test -race ./internal/bgppol/ ./internal/sched/ ./internal/core/
	$(GO) run ./examples/churn

# Multipath: the striping tests race-clean (chunk ledger, hedging,
# drains, churn digest property), then the striped-vs-single replay.
multipath:
	$(GO) test -race ./internal/multipath/ ./internal/stats/ ./internal/sched/
	$(GO) run ./examples/multipath

# Grayfail: the gray-failure detection tests race-clean (stall
# watchdogs, outlier ejection with canary re-admission, retry budgets),
# then the silent-degradation replay with and without the health stack.
grayfail:
	$(GO) test -race ./internal/health/ ./internal/faults/ ./internal/sched/
	$(GO) run ./examples/grayfail

# Crashsafe: the crash-consistency tests race-clean (journal framing,
# replay fold, torn tails, snapshot equivalence, the full crash-point
# sweep), the journal record-decode fuzzer holds up for a short smoke
# run, then the sweep replay: kill at every crash point, restart on the
# journal, converge byte-identical with zero duplicate commits.
crashsafe:
	$(GO) test -race ./internal/journal/ ./internal/sched/
	$(GO) test -fuzz=FuzzScan -fuzztime=5s ./internal/journal
	$(GO) run ./examples/crashsafe

# Pressure: the storage-exhaustion tests race-clean (staging-disk
# admission/eviction/conservation, quota reclaim/spill/park ladder,
# journal ENOSPC compaction and degraded mode), then the replay:
# disks fill, quota drains, the journal device fills — the full stack
# vs the no-mitigation ablation.
pressure:
	$(GO) test -race ./internal/rsyncx/ ./internal/sched/ ./internal/cloudsim/ ./internal/journal/
	$(GO) run ./examples/pressure

# Telemetry: the observability-plane tests race-clean (registry hot
# path, histogram merges, sampler wraparound/pause, flight-recorder
# retention, determinism, no-observer-effect), then the instrumented
# flash-crowd replay: live dumps, dashboard sparklines, failed-job
# decision traces, Prometheus dump.
telemetry:
	$(GO) test -race ./internal/telemetry/ ./internal/sched/
	$(GO) run ./examples/telemetry

# Stress: the scheduler suite repeated under the race detector to
# shake out ordering-dependent bugs in the queue and overload layer.
stress:
	$(GO) test -race -count=5 ./internal/sched/

# Golden outputs: the stdout of every single-driver example and of the
# 15 detourbench figures and tables, pinned byte for byte under
# testdata/golden/. chaos and fleet are left out: their worker pools
# interleave for real, so two runs differ. `make golden` rewrites the
# files after an intended output change; `make golden-check` compares.
GOLDEN_EXAMPLES = churn crashsafe detour-selection grayfail multipath overlay-monitor \
	overload pressure provider-sweep quickstart science-dmz telemetry
GOLDEN_EXPERIMENTS = fig2 table2 fig3 fig4 fig5 fig6 fig7 table3 fig8 fig9 table4 \
	fig10 fig11 table1 table5
GOLDEN_BIN = .golden-bin
GOLDEN_BUILD = $(GO) build -o $(GOLDEN_BIN)/ ./cmd/detourbench $(addprefix ./examples/,$(GOLDEN_EXAMPLES))

golden:
	$(GOLDEN_BUILD)
	mkdir -p testdata/golden
	for e in $(GOLDEN_EXAMPLES); do $(GOLDEN_BIN)/$$e >testdata/golden/example-$$e.txt || exit 1; done
	for x in $(GOLDEN_EXPERIMENTS); do \
		$(GOLDEN_BIN)/detourbench -experiment $$x >testdata/golden/detourbench-$$x.txt || exit 1; done

golden-check:
	$(GOLDEN_BUILD)
	for e in $(GOLDEN_EXAMPLES); do $(GOLDEN_BIN)/$$e >$(GOLDEN_BIN)/out.txt && \
		cmp $(GOLDEN_BIN)/out.txt testdata/golden/example-$$e.txt || exit 1; done
	for x in $(GOLDEN_EXPERIMENTS); do $(GOLDEN_BIN)/detourbench -experiment $$x >$(GOLDEN_BIN)/out.txt && \
		cmp $(GOLDEN_BIN)/out.txt testdata/golden/detourbench-$$x.txt || exit 1; done

# The gate PRs must pass: everything compiles, vets clean, the full
# test suite (including the really-concurrent scheduler) is race-clean,
# the delta-encoding and journal-decode fuzzers hold up for a short
# smoke run, the chaos and overload replays complete, and the churn,
# multipath, grayfail, crashsafe, pressure, and telemetry replays are
# byte-identical across two runs of the same seed — for telemetry that
# covers the whole observability plane: metric dumps, time series,
# sparklines, and flight-recorder traces — and every deterministic
# example and paper figure/table matches its golden output. The
# eviction-safety suites get an explicit race pass (cheap, and kept even
# if the blanket ./... leg above is ever narrowed).
check:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race ./...
	$(GO) test -race ./internal/rsyncx/ ./internal/sched/
	$(GO) test -fuzz=FuzzDelta -fuzztime=10s ./internal/rsyncx
	$(GO) test -fuzz=FuzzScan -fuzztime=5s ./internal/journal
	$(GO) run ./examples/chaos >/dev/null
	$(GO) run ./examples/overload >/dev/null
	$(GO) run ./examples/churn >.churn.a.tmp
	$(GO) run ./examples/churn >.churn.b.tmp
	cmp .churn.a.tmp .churn.b.tmp
	rm -f .churn.a.tmp .churn.b.tmp
	$(GO) run ./examples/multipath >.mp.a.tmp
	$(GO) run ./examples/multipath >.mp.b.tmp
	cmp .mp.a.tmp .mp.b.tmp
	rm -f .mp.a.tmp .mp.b.tmp
	$(GO) run ./examples/grayfail >.gray.a.tmp
	$(GO) run ./examples/grayfail >.gray.b.tmp
	cmp .gray.a.tmp .gray.b.tmp
	rm -f .gray.a.tmp .gray.b.tmp
	$(GO) run ./examples/crashsafe >.cs.a.tmp
	$(GO) run ./examples/crashsafe >.cs.b.tmp
	cmp .cs.a.tmp .cs.b.tmp
	rm -f .cs.a.tmp .cs.b.tmp
	$(GO) run ./examples/pressure >.pr.a.tmp
	$(GO) run ./examples/pressure >.pr.b.tmp
	cmp .pr.a.tmp .pr.b.tmp
	rm -f .pr.a.tmp .pr.b.tmp
	$(GO) run ./examples/telemetry >.tlm.a.tmp
	$(GO) run ./examples/telemetry >.tlm.b.tmp
	cmp .tlm.a.tmp .tlm.b.tmp
	rm -f .tlm.a.tmp .tlm.b.tmp
	$(MAKE) --no-print-directory golden-check
