GO ?= go

.PHONY: build test check fmt-check corpus-smoke live-smoke examples-smoke bench-smoke fuzz-smoke run-pgd bench loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fmt-check fails when any Go file in the tree, the bench module included,
# is not gofmt-formatted, and lists those files.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "fmt-check: not gofmt-formatted:"; echo "$$out"; exit 1; fi

# loc prints the non-test Go lines of every package outside bench/ (the
# benchmark module) and hidden directories, one package directory a line,
# then their total.
loc:
	@find . \( -path ./bench -o -name '.*' ! -name . \) -prune -o -name '*.go' ! -name '*_test.go' -print | \
		xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# check is the concurrency tier: formatting and vet; the race detector over each package
# that starts goroutines (the exploration core's derivation workers, the
# equivalence engine's refinement workers, the daemon) or whose state
# goroutines share (sim's machine fleets, the fsm machines they hold, the
# medium that a deployed entity's connection readers fill); ten
# repetitions of the shared-fleet test (sessions filling one fleet's rows
# concurrently), of the shared-verifier test (Verify calls on one
# Protocol, plain and symmetry-reduced, filling its one exact table
# concurrently) and of the shared-label test (checks rendering their
# products' labels while others intern labels into the same table); twenty of the parallel-determinism test (product state
# keys pack interned ids, so their bytes vary with worker scheduling, and
# the decoded content of every state number is what guards the
# numbering); the corpus and live
# gates; the examples; the benchmark module's own tests; and a short fuzz
# smoke of the native fuzz targets.
check:
	$(MAKE) fmt-check
	$(GO) vet ./...
	$(GO) test -race ./internal/sim/ ./internal/medium/ ./internal/compose/ ./internal/lts/ ./internal/equiv/ ./internal/fsm/ ./internal/service/ ./cmd/pgd/
	$(GO) test -race -count=10 -run '^TestSharedFleetConcurrentSessions$$' ./internal/sim/
	$(GO) test -race -count=10 -run '^TestProtocolVerifyConcurrent$$' .
	$(GO) test -race -count=10 -run '^TestVerifierConcurrentLabels$$' ./internal/compose/
	$(GO) test -race -count=20 -run '^TestParallelExploreDeterministic$$' ./internal/compose/
	$(MAKE) corpus-smoke
	$(MAKE) live-smoke
	$(MAKE) examples-smoke
	$(MAKE) bench-smoke
	$(MAKE) fuzz-smoke

# examples-smoke runs every program under examples/ at GOMAXPROCS 1 and 4:
# each must exit 0 and print the same bytes both times, since every
# simulation is a seeded lockstep run.
examples-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for d in examples/*/; do \
		GOMAXPROCS=1 $(GO) run ./$$d > "$$tmp/1" || { echo "examples-smoke: $$d failed at GOMAXPROCS=1"; exit 1; }; \
		GOMAXPROCS=4 $(GO) run ./$$d > "$$tmp/4" || { echo "examples-smoke: $$d failed at GOMAXPROCS=4"; exit 1; }; \
		cmp -s "$$tmp/1" "$$tmp/4" || { echo "examples-smoke: $$d prints differently at GOMAXPROCS 1 and 4"; exit 1; }; \
		echo "examples-smoke: $$d ok"; \
	done

# bench-smoke vets and tests the benchmark (bench/, a Go module of its own
# that the root ./... patterns skip): unit tests plus a short run of every
# workload. The benchmark calls internal APIs directly, so a refactor of
# internal/ must keep it building and its outputs correct.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# corpus-smoke is the corpus gate, under the race detector. The corpus tests
# are views over one memoized cell table (corpus_cells_test.go): every corpus
# cell (the fault matrix: 12 specs x capacity 1, 2 x reliable, loss, dup,
# reorder; each spec's capacity-1 loss+dup cell; the multi-instance specs at
# 20,000 states) is verified once serially (a fault-matrix row in one
# VerifyMatrix call), that report is held byte-identical to
# testdata/corpus_verify.golden, its witness is replayed through the shared
# fleet, fresh machines and its recorded JSON, and every other engine
# configuration is compared with it cell by cell: the parallel explorer,
# compositional verification (serial and parallel, over one artifact
# cache), each reduction set against the unreduced product, and the spilled
# and parallel por+symmetry engines. Each report is verified once however
# many of the views check it. With them run the artifact-cache tests
# (cross-spec sharing, no false sharing, LRU bound, a late UseArtifacts,
# effective-cap keying, verify/compile/simulate sharing one cache
# concurrently), block-permutation invariance, and multiinstance explored
# to completion under symmetry inside a budget its unreduced product
# overflows.
corpus-smoke:
	$(GO) test -race -run '^(TestCorpusDeriveVerifySweep|TestCorpusFaultMatrix|TestCorpusVerifyGolden|TestCorpusReliableColumnConformant|TestReplayDecodedWitness|TestCorpusCompositionalDifferential|TestCorpusReductionDifferential|TestCorpusSerialParallelSpilledAgree|TestArtifact.*|TestFleetSharesCachedMachines|TestPermutationInvariance|TestReductionPermutationRandomized|TestMultiinstanceCompletesUnderSymmetry)$$' -count=1 .

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
	$(GO) test -run '^$$' -fuzz '^FuzzDaemonRequest$$' -fuzztime $(FUZZTIME) ./internal/service

# run-pgd starts the derivation daemon on :8080 (override with ARGS).
run-pgd:
	$(GO) run ./cmd/pgd $(ARGS)

# bench runs the go-test benchmarks of the root package, internal/compose
# and internal/service once each (BENCHTIME=1x; pass a longer BENCHTIME for
# numbers): the experiment rows EXPERIMENTS.md and DESIGN.md cite, the
# roadmap's baselines (the equivalence engine against its reference, the
# big-k relay, product derivation's allocations and bytes per state), and
# the paths and comparisons no bench/ workload runs (compositional
# verification, serial against parallel exploration, fresh against
# shared fleets, minimization, the daemon's compile derive path). The
# benchmark of record is `bash bench/run.sh`; the committed BENCH_PR*.json
# files are earlier per-PR records, kept as history.
bench:
	$(GO) test -run '^$$' -bench . -benchtime $(or $(BENCHTIME),1x) -benchmem . ./internal/compose ./internal/service
