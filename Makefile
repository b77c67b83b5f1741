GO ?= go

.PHONY: build test check bench-smoke fuzz-smoke fault-matrix-smoke compositional-smoke reduction-smoke cluster-smoke dist-smoke live-smoke run-pgd bench bench-equiv bench-fsm bench-cluster bench-dist bench-compositional bench-reduction

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the concurrency tier: vet plus the race detector over the
# packages that exercise goroutines (the runtime, the medium, the
# exploration core's derivation workers, the equivalence engine's
# refinement workers and the daemon), ten repetitions of the shared-fleet
# test (sessions filling one fleet's rows concurrently), the smoke gates,
# the benchmark module's own tests, and a short fuzz smoke of the native
# fuzz targets.
check:
	$(GO) vet ./...
	$(GO) test -race ./internal/sim/ ./internal/medium/ ./internal/compose/ ./internal/lts/ ./internal/equiv/ ./internal/service/ ./cmd/pgd/
	$(GO) test -race -count=10 -run '^TestSharedFleetConcurrentSessions$$' ./internal/sim/
	$(MAKE) fault-matrix-smoke
	$(MAKE) compositional-smoke
	$(MAKE) reduction-smoke
	$(MAKE) cluster-smoke
	$(MAKE) dist-smoke
	$(MAKE) live-smoke
	$(MAKE) bench-smoke
	$(MAKE) fuzz-smoke

# bench-smoke vets and tests the benchmark (bench/, a Go module of its own
# that the root ./... patterns skip): unit tests plus a short run of every
# workload. The benchmark calls internal APIs directly, so a refactor of
# internal/ must keep it building and its outputs correct.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# fault-matrix-smoke sweeps the whole corpus through the fault matrix once
# (reliable, loss, dup, reorder at caps 1 and 2) under the race detector,
# replaying every extracted counterexample through the concrete interpreter,
# and holds every cell's report text and witness byte-identical to
# testdata/corpus_verify.golden.
fault-matrix-smoke:
	$(GO) test -race -run '^(TestCorpusFaultMatrix|TestCorpusReliableColumnConformant|TestCorpusVerifyGolden)$$' -count=1 .

# compositional-smoke is the quotient-before-compose gate: the whole corpus
# verified monolithically and compositionally (serial and parallel, sharing
# one artifact cache) under the race detector with verdicts, witnesses and
# replays compared cell by cell, plus the content-addressed artifact-cache
# correctness tests (cross-spec sharing, no false sharing, LRU bound,
# effective-cap keying, verify/compile/simulate sharing one cache
# concurrently) and the entity-delta differ. The quotient the product
# composes over is the entity machine's minimized layer, so the gate also
# runs the fsm package's tests and the compose package's compositional unit
# tests (over-cap fallback, compile failures, matrix reuse).
compositional-smoke:
	$(GO) test -race -run '^(TestCorpusCompositionalDifferential|TestArtifact|TestFleetSharesCachedMachines|TestDiffProtocols)' -count=1 .
	$(GO) test -race -count=1 ./internal/fsm/
	$(GO) test -race -run '^(TestCompositional|TestEntity)' -count=1 ./internal/compose/

# reduction-smoke is the reduction-soundness gate: the whole corpus verified
# unreduced and under every reduction set (POR, symmetry, spill, all) across
# reliable and faulty media with verdicts compared cell by cell and every
# reduced counterexample replayed; the one exploration core run in three
# configurations (one worker, several workers, the spilling visited index)
# and compared byte for byte within one reduction set;
# block-permutation invariance; and the tentpole acceptance run —
# multiinstance explored to completion under symmetry inside a budget its
# unreduced product overflows. All under the race detector.
reduction-smoke:
	$(GO) test -race -run '^(TestCorpusReductionDifferential|TestCorpusSerialParallelSpilledAgree|TestPermutationInvariance|TestReductionPermutationRandomized|TestMultiinstanceCompletesUnderSymmetry)$$' -count=1 .

# cluster-smoke is the fleet-simulator gate: the cluster engine and its CLI
# under the race detector, then the small scenario run twice with
# byte-compared fingerprints (the determinism contract), plus one recorded
# session replayed through the ordinary simulator.
cluster-smoke:
	$(GO) test -race -short ./internal/cluster/ ./cmd/lotoscluster/
	@a=$$($(GO) run ./cmd/lotoscluster -fingerprint scenarios/smoke.json) || exit 1; \
	b=$$($(GO) run ./cmd/lotoscluster -fingerprint scenarios/smoke.json) || exit 1; \
	if [ "$$a" != "$$b" ]; then \
		echo "cluster-smoke: fingerprints diverged between runs"; exit 1; \
	fi; \
	echo "cluster-smoke: deterministic ($$(printf '%s\n' "$$a" | sed -n 2p))"
	$(GO) run ./cmd/lotoscluster -replay 3 scenarios/smoke.json > /dev/null

# dist-smoke is the fleet gate: the ring/coordinator/batch/SSE tests under
# the race detector, then the multi-process acceptance lane — a real pgd
# binary booted as `-coordinator -spawn 2`, the whole corpus fault matrix
# streamed through POST /v1/batch, every verdict compared byte-for-byte
# (timing telemetry zeroed) against a single-process daemon.
dist-smoke:
	$(GO) test -race -count=1 ./internal/dist/
	$(GO) test -race -count=1 -run '^(TestDistSmoke|TestCoordinatorEndToEnd|TestServeUntilDrainsInFlight|TestServeUntilGraceExceeded)$$' ./cmd/pgd/

# live-smoke is the deployment gate: the wire codec, endpoint and
# coordinator tests; the in-process corpus differential (every corpus spec
# deployed over loopback TCP, its control connections driven by the same
# sim.Lockstep sweep as an in-process session, the seeded outcome
# byte-identical to the lockstep simulation with the same seed); the
# trace-log conformance checker (and its fuzz seeds); the fault-injection
# proxy mirrored frame-for-frame against the in-process medium; the
# transport fault matrix re-established on real sockets, its loss witness
# replayed live through the same sim.Replay loop as in process; and the
# pgdeploy binary suite — entities as real OS processes, machines past a
# tiny state cap live, crash/restart classified incomplete. All under the
# race detector.
live-smoke:
	$(GO) test -race -count=1 ./internal/wire/ ./internal/wire/conformance/ ./internal/wire/wiretest/ ./cmd/pgdeploy/

# fuzz-smoke runs each native fuzz target for FUZZTIME (CI passes 10s);
# long fuzzing sessions use `go test -fuzz` directly with a bigger
# -fuzztime.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/lotos
	$(GO) test -run '^$$' -fuzz '^FuzzDerive$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyFaults$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzExploreReduced$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME) ./internal/fsm
	$(GO) test -run '^$$' -fuzz '^FuzzWeakEngine$$' -fuzztime $(FUZZTIME) ./internal/equiv
	$(GO) test -run '^$$' -fuzz '^FuzzFleetRuns$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzWireCodec$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzTraceLog$$' -fuzztime $(FUZZTIME) ./internal/wire/conformance

# run-pgd starts the derivation daemon on :8080 (override with ARGS).
run-pgd:
	$(GO) run ./cmd/pgd $(ARGS)

# bench runs the root package's go-test benchmarks. The benchmark of record
# is `bash bench/run.sh`; the committed BENCH_PR*.json files are earlier
# per-PR records, kept as history.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# bench-equiv sweeps the corpus through both equivalence checkers — the
# integer/CSR engine and the retained map/string reference — for
# WeakBisim and Quotient. Also the CI smoke (benchtime=1x, must complete).
bench-equiv:
	$(GO) test -run '^$$' -bench '^(BenchmarkWeakBisim|BenchmarkQuotient)$$' -benchtime $(or $(BENCHTIME),1x) -benchmem .

# bench-fsm sweeps the corpus through the entity machines — built fresh for
# every run against one warm shared fleet (steps/s, allocs/op) — plus
# minimization itself and the daemon's compile derive path. Also the CI
# smoke (benchtime=1x, must complete).
bench-fsm:
	$(GO) test -run '^$$' -bench '^(BenchmarkSimulate|BenchmarkCompile)$$' -benchtime $(or $(BENCHTIME),1x) -benchmem .
	$(GO) test -run '^$$' -bench '^BenchmarkServerDeriveCompile' -benchtime $(or $(BENCHTIME),1x) -benchmem ./internal/service

# bench-cluster sweeps the fleet simulator: the discrete-event engine at 10k
# and 100k sessions (sessions/s, per-class p99, replica fairness) against
# the naive goroutine-per-session baseline. Also the CI smoke (benchtime=1x,
# must complete).
bench-cluster:
	$(GO) test -run '^$$' -bench '^BenchmarkCluster' -benchtime $(or $(BENCHTIME),1x) -benchmem ./internal/cluster/

# bench-dist sweeps the fleet: cold-derive throughput direct vs through a
# 4-worker coordinator (routing overhead), the capacity-bounded scaling
# lane (1 process vs a 4-worker fleet of processes each modelling one
# machine — the ≥3× acceptance bar), and streamed-batch throughput. Also
# the CI smoke (benchtime=1x, must complete).
bench-dist:
	$(GO) test -run '^$$' -bench '^(BenchmarkDirectDeriveCold|BenchmarkFleet|BenchmarkCapacity)' -benchtime $(or $(BENCHTIME),1x) -benchmem ./internal/dist/

# bench-compositional sweeps quotient-before-compose against monolithic
# verification on the finite-entity corpus shapes (the per-spec state-count
# reduction is reported as product-states/mono-states metrics) and the
# delta-verify lane: a warm-cache single-entity edit against the cold full
# verification of the same edited spec — the ≥3× acceptance bar. Also the
# CI smoke (benchtime=1x, must complete).
bench-compositional:
	$(GO) test -run '^$$' -bench '^(BenchmarkCompositionalVerify|BenchmarkDeltaVerify)$$' -benchtime $(or $(BENCHTIME),1x) -benchmem .

# bench-reduction sweeps the reduction ablation: the exact full state space
# of each symmetric corpus shape explored unreduced, under POR, POR+symmetry
# and the whole out-of-core stack (the per-op `states` metric is the result
# — the time ratios follow the state-count ratios), the big-k scaling lane
# (k identical relay instances explored to completion with the spilling
# visited index held at a 1 MiB budget; `peak_mem_bytes` is the residency
# evidence), and the end-to-end facade verification of multiinstance with
# and without symmetry. Also the CI smoke (benchtime=1x, must complete).
bench-reduction:
	$(GO) test -run '^$$' -bench '^BenchmarkReduction(Explore|BigK|Verify)$$' -benchtime $(or $(BENCHTIME),1x) -benchmem .
