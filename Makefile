GO ?= go

.PHONY: help check vet build test race race-core bench e2e-bench e2e-pairs loc profile soak crash crash-quick fmt fmt-check lint lint-fixtures incremental-default zero-alloc deep-history fuzz-quick serve serve-contract

help:
	@echo "Targets:"
	@echo "  check               fmt-check + vet + lint + build + race-core + race + invariants"
	@echo "  test                go test ./..."
	@echo "  race                go test -race ./... minus internal/lint and cmd/autolint, which run without -race"
	@echo "  bench               quick figure suite (F1-F22, A1-A6) + go test -bench micro-benchmarks; no floors (BENCH_4..9.json are all frozen records)"
	@echo "  e2e-bench           quick pass of the repo benchmark (BENCHMARK.json: daemon subprocess, four workloads)"
	@echo "  e2e-pairs           BASE=<rev> WORKLOAD=<name> [N=10]: alternate parent/change runs of the repo benchmark, then -compare"
	@echo "  loc                 non-test Go line count outside benchmark/ and lint fixtures (the size gate of ROADMAP's simplicity items)"
	@echo "  deep-history        surrogate tier determinism tests + the A6 regret guard (rides in check)"
	@echo "  serve               run the tuning daemon locally (store: ./.autotuned; SIGTERM drains)"
	@echo "  serve-contract      service robustness tests: overload shedding, graceful drain, kill -9 recovery"
	@echo "  profile             CPU/heap pprof of BenchmarkBOSuggest run across the dense -> sparse switch (cpu.pprof, mem.pprof)"
	@echo "  soak                long-running race soak of sched + trial"
	@echo "  crash               full fault-injection torture of the study store (every fault point, every byte prefix)"
	@echo "  crash-quick         sampled torture sweep (the slice of crash that rides in check)"
	@echo "  zero-alloc          allocs/op gates: gp.Predict, warm bo.Suggest, space encoders, count=64 suggest and single-trial observe handlers"
	@echo "  fuzz-quick          10 s each of FuzzConfigAppendJSON and FuzzDecodeRecord: the hand-written JSON writer and record decoder against encoding/json (rides in check)"
	@echo "  race-core           focused -race pass over the lock-discipline-critical packages"
	@echo "  lint                repo-specific static analysis, both tiers (cmd/autolint -typed)"
	@echo "  lint-fixtures       re-goldenize lint fixture outputs (requires UPDATE=1)"
	@echo "  fmt / fmt-check     gofmt the tree / fail if gofmt is needed"

check: fmt-check vet lint build race-core race incremental-default zero-alloc fuzz-quick deep-history crash-quick serve-contract

# Quick deep-history arm (PR 9 invariant): the surrogate tier ladder is
# bitwise-deterministic (sparse == dense below the budget, switch points
# reproduce across runs and resume, local suggestions worker-count-free)
# and the ladder costs no regret against the dense policy (ablation A6, a
# pure function of the seed — no wall-clock ratio rides in check).
deep-history:
	$(GO) test ./internal/bo -run 'Test(SparseTier|AutoSwitch|ForestTier|TierSwitch|Local)' -count=1
	$(GO) test ./internal/smac -run TestSMACDeepHistory -count=1
	$(GO) test ./internal/experiments -run TestA6 -count=1

# Pin the service contract (PR 7 invariant): overload sheds with 429 +
# Retry-After while /readyz flips, drain finishes in-flight work and
# seals the log, and a kill -9'd daemon recovers every ack exactly once.
# The Shard pattern adds the PR 10 surface: hash routing, per-shard
# stores, histories surviving shard-count changes, cross-shard drain.
serve-contract:
	$(GO) test -race -count=1 -run 'Test(Overload|Drain|EndToEnd|CrashRecovery|Shard|ConcurrentCreates)' ./internal/server
	$(GO) test -count=1 -run 'Test(KillDashNine|Sigterm)' ./cmd/autotuned

# Run the daemon locally with a persistent store in ./.autotuned.
# Ctrl-C / SIGTERM drains gracefully: in-flight requests finish and the
# log is sealed, so the next start needs zero repair.
serve:
	$(GO) run ./cmd/autotuned -store .autotuned

# Crash-torture the segmented study store (PR 6 invariant): kill the
# store at every injected fault point and every byte prefix of the log,
# reopen, and assert exactly-once recovery. The TestTorture pattern also
# picks up the group-commit fault sweep (PR 10): concurrent appenders
# killed at every commit point of the shared-fsync path, including
# between the leader's fsync and the followers' acks. `crash` sweeps
# everything; `crash-quick` strides through a sample for CI.
crash:
	$(GO) test -race -count=1 -run 'TestTorture' ./internal/studystore

crash-quick:
	$(GO) test -race -short -count=1 -run 'TestTorture' ./internal/studystore

# Pin the zero-allocation hot paths (PR 5 invariant): gp.Predict and the
# space encoders at exactly zero allocs/op warm, bo.Suggest under its
# documented ceiling, a count=64 suggest through Server.ServeHTTP under the
# ceiling the hand-written response encoder bought, and a single-trial
# observe under the ceiling that strategies keeping no copy of the history
# bought.
zero-alloc:
	$(GO) test ./internal/gp -run TestPredictZeroAllocs -count=1
	$(GO) test ./internal/space -run 'Test(EncodeInto|SampleInto)ZeroAllocs' -count=1
	$(GO) test ./internal/bo -run TestSuggestWarmAllocs -count=1
	$(GO) test ./internal/server -run 'Test(Suggest|Observe)HandlerAllocs' -count=1

# Ten seconds each of differential fuzzing against encoding/json:
# space.Config.AppendJSON must write json.Marshal's bytes or fail where it
# fails, and trial.DecodeRecord — the decoder every replay goes through —
# must return json.Unmarshal's record or fail where it fails. New coverage
# stays in the go build cache; a crasher lands in the package's
# testdata/fuzz and is checked in, where plain `go test` replays it from
# then on.
fuzz-quick:
	$(GO) test ./internal/space -run '^$$' -fuzz FuzzConfigAppendJSON -fuzztime 10s
	$(GO) test ./internal/trial -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 10s

# Assert the incremental surrogate path is enabled by default — the exact
# (full refits, hyper refits, rank-1 updates) triple of a seeded run — and
# agrees with from-scratch fits (PR 4 invariant).
incremental-default:
	$(GO) test ./internal/bo -run 'TestIncremental(EnabledByDefault|MatchesFullRefit)' -count=1

vet:
	$(GO) vet ./...

# Both analysis tiers: syntactic (name-index heuristics) and typed
# (go/types + per-function CFG dataflow). -typed is the default; spelled
# out here so check provably exercises the typed tier.
lint:
	$(GO) run ./cmd/autolint -typed ./...

# Re-goldenize testdata/*/golden.json from current analyzer output. The
# UPDATE=1 guard makes regeneration a deliberate act — a behavior change
# must never re-goldenize itself in passing.
lint-fixtures:
	@if [ "$(UPDATE)" != "1" ]; then \
		echo "lint-fixtures rewrites internal/lint/testdata/*/golden.json."; \
		echo "Run 'make lint-fixtures UPDATE=1' to confirm."; exit 1; fi
	UPDATE=1 $(GO) test ./internal/lint -run TestGoldenFixtures -count=1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# internal/lint and cmd/autolint start no goroutine and import no module
# package that could (TestLintPackagesCannotRace pins both), so -race has
# nothing to find in them; they run in this target without it.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v -e '/internal/lint$$' -e '/cmd/autolint$$')
	$(GO) test ./internal/lint ./cmd/autolint

# The packages whose lock discipline the lockheld analyzer polices get a
# focused, always-fresh -race pass (the full `race` target may cache).
race-core:
	$(GO) test -race -count=1 ./internal/sched/... ./internal/studystore/...

# The figure suite at CI scale plus the root package's micro-benchmarks.
# Nothing here gates on a timing: perf regressions are judged by e2e-pairs,
# complexity regressions by the count tests (incremental-default,
# TestGroupCommitSharesOneFsync).
bench:
	$(GO) run ./cmd/bench -quick
	$(GO) test -bench 'Benchmark(GPPredict|BOSuggest|SpaceEncode)' -benchmem -run xxx .

# The repo benchmark (BENCHMARK.json, benchmark/README.md) at smoke scale:
# every end-to-end figure comes from here, not from cmd/bench.
e2e-bench:
	$(GO) run ./benchmark -quick

# Parent-versus-change pairs of one workload, the way benchmark/README.md
# asks for them: BASE is exported (git archive, so nothing is registered in
# .git) under .bench_build/, the two sides alternate run by run — odd pairs
# run the parent first, even pairs the change — on one fresh seed per pair,
# so a slow episode of the box lands on both. Leaves pairs-base.jsonl and
# pairs-change.jsonl under .bench_build/ and prints their -compare table.
N ?= 10
e2e-pairs:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make e2e-pairs BASE=<rev> WORKLOAD=<name> [N=10]"; exit 2; }
	rm -rf .bench_build/base .bench_build/pairs-base.jsonl .bench_build/pairs-change.jsonl
	mkdir -p .bench_build/base
	git archive $(BASE) | tar -x -C .bench_build/base
	@run() { (cd $$1 && $(GO) run ./benchmark -workload $(WORKLOAD) -seed $$3 -out $(CURDIR)/.bench_build/pairs-$$2.jsonl); }; \
	for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then run .bench_build/base base $$i && run . change $$i; \
		else run . change $$i && run .bench_build/base base $$i; fi || exit 1; \
	done
	$(GO) run ./benchmark -compare .bench_build/pairs-base.jsonl .bench_build/pairs-change.jsonl

# The size gate of ROADMAP's simplicity items in one command: non-test Go
# lines outside the benchmark harness and the lint fixtures.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './internal/lint/testdata/*' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l

# 600 iterations grow one study's history past DenseMax (512), so the
# profile covers dense absorption, the tier switch and the sparse tier.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkBOSuggest$$' -benchtime 600x -cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "inspect with: go tool pprof -top cpu.pprof   (or mem.pprof)"

soak:
	$(GO) test -race -run Soak -count=1 ./internal/sched ./internal/trial

fmt:
	gofmt -l -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
