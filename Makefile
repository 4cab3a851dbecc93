GO ?= go

.PHONY: build test vet race bench stress check golden golden-check loc

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

# Stress: the scheduler suite repeated under the race detector to
# shake out ordering-dependent bugs in the queue and overload layer,
# with the telemetry registry (the scheduler's counters are its
# lock-free atomics, read outside the scheduler lock), the replay
# driver that runs every mode through it, simproc (the coroutine
# switch is the happens-before edge between the driver and each
# process), and detourd, whose multi-worker runs (8 workers in the
# default mode, 4 under -chaos) interleave real workers over one
# simulated world.
stress:
	$(GO) test -race -count=5 ./internal/sched/ ./internal/telemetry/ ./internal/replay/ ./internal/simproc/ ./cmd/detourd/

# Golden outputs, pinned byte for byte under testdata/golden/ and
# compared by the TestGolden* tests that tier-1 `go test ./...` runs:
# the stdout of the five examples (each example's TestGolden), the
# seven deterministic scheduler replays, the 15 paper figures and
# tables and every ablation and extension study
# (detourbench-studies.txt; cmd/detourbench's TestGolden), the two
# one-worker daemon runs detourd-default.txt and detourd-chaos.txt
# (cmd/detourd's TestGolden), and the simulated work of every paper pair and one-worker replay arm
# (internal/replay's TestGoldenWork, work.txt). Every detourbench
# replay has a golden; multi-worker runs (detourd's TestChaosWorkers)
# pin only their exit code, since their workers interleave for real.
# `make golden-check` compares; `make golden` rewrites every file after
# an intended output change, through the -update flag of the packages
# that import goldentest.
golden:
	$(GO) test -count=1 -run '^TestGolden' ./examples/... ./cmd/detourbench ./cmd/detourd ./internal/replay -update

golden-check:
	$(GO) test -count=1 -run '^TestGolden' ./...

# Lines of non-test Go: the whole module outside the nested
# detourledger/ module and the ledger's .bench_build/ scratch, then the
# scheduler, replay and fault-injection packages on their own — the
# counts a simplification reports before and after.
LOC_PKGS = internal/sched internal/replay internal/faults
loc:
	@printf '%-16s %6d\n' total $$(find . \( -path ./detourledger -o -path ./.bench_build -o -path ./.git \) -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)
	@for d in $(LOC_PKGS); do printf '%-16s %6d\n' $$d $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); done

# The gate PRs must pass: every Go file is gofmt-clean, everything
# compiles, vets clean, the full test suite (including the
# really-concurrent scheduler) is race-clean, the nested detourledger
# module (which `./...` skips) compiles and vets against the scheduler,
# the test-only-export scan (root package; it checks source, so the
# race leg skips it and this leg runs it without -race) finds no
# exported name or unexported function that only tests reach, and no
# exported struct field that only tests set, outside its allowlist,
# every benchmark in the module, which `go test` only compiles, runs
# one iteration, the journal-decode, journal-encode,
# wire-decode, Content-Range and fluid allocator-versus-reference
# fuzzers hold up for a short smoke run, and every golden matches (the
# race leg skips the golden runs).
check:
	test -z "$$(gofmt -l .)"
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race ./...
	$(GO) -C detourledger vet ./...
	$(GO) test -count=1 -run '^(TestNoTestOnlyExports|TestScanFindsPlantedExport)$$' .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -fuzz=FuzzScan -fuzztime=5s ./internal/journal
	$(GO) test -fuzz=FuzzJournalRecord -fuzztime=5s ./internal/sched
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=5s ./internal/jsonwire
	$(GO) test -fuzz=FuzzParseContentRange -fuzztime=5s ./internal/cloudsim
	$(GO) test -fuzz=FuzzAllocatorMatchesReference -fuzztime=5s ./internal/fluid
	$(MAKE) --no-print-directory golden-check
