# Shared targets for CI (.github/workflows/ci.yml) and humans.

GO ?= go

.PHONY: all build loc vet fmt fmt-check lint test race bench bench-smoke bench-module-smoke bench-json bench-sched exp-smoke sweep-smoke serve-smoke stream-smoke fabric-smoke examples-smoke fuzz-smoke cover check

all: check

build:
	$(GO) build ./...

# loc prints the non-test Go line count (bench/ and testdata excluded),
# the size figure the project tracks from change to change.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v /testdata/ | grep -v '^bench/' | xargs cat | wc -l

vet:
	$(GO) vet ./...

# fmt rewrites; fmt-check is the CI gate.
fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Static analysis: stock go vet plus stepvet, the repo-specific suite
# enforcing the determinism, lock-discipline, hot-path, equalfields, and
# registry-coverage invariants (see `stepvet -list`). Fails on any
# unsuppressed finding.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/stepvet -json ./...

test:
	$(GO) test ./...

# The race job trims the determinism matrix with -short (see
# internal/experiments/determinism_test.go); the full matrix runs
# under `make test`. The root package is included so the facade's
# Program runs (step_test.go, sched_gate_test.go) are race-checked too,
# and ./cmd/... so the CLIs' tests are.
race:
	$(GO) test -race -short . ./internal/... ./cmd/...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# benchtime is the iteration count of both bench-smoke and bench-json:
# the gate compares allocs/op against a baseline taken at the same count,
# so per-run setup inside a benchmark's timed loop amortizes identically
# on both sides.
benchtime := 2x

# Every benchmark at $(benchtime), with -benchmem: exercises every
# experiment's bench path and feeds the regression gate below. Allocation
# counts transfer across machines but are not exact: sync.Pool refills
# depend on when the GC ran in earlier benchmarks, and parallel-engine
# variants move by a fraction of a percent, so compare repeated runs
# before reading a small change into one. Timings do not transfer at
# all, which is why bench-compare fails only on allocs/op growth beyond
# 20% (ns/op growth warns — see cmd/benchjson).
bench-smoke:
	$(GO) test -bench=. -benchtime=$(benchtime) -benchmem -run='^$$' ./... > bench-smoke.out || \
		{ cat bench-smoke.out; rm -f bench-smoke.out; exit 1; }
	@cat bench-smoke.out
	$(GO) run ./cmd/benchjson -compare BENCH_core.json < bench-smoke.out
	@rm -f bench-smoke.out
	$(GO) test -run TestSchedStatsGate -v .

# bench-module-smoke runs the end-to-end benchmark module's own tests
# (bench/ is a separate Go module, so `go test ./...` at the root skips
# it). They re-render every table the benchmark checks and compare it
# with the pinned bench/testdata/*.sha256, so an engine change that moves
# a single output byte fails here (about 10 s).
bench-module-smoke:
	cd bench && $(GO) test ./...

# bench-sched profiles the scheduler's coordination cost: the engine
# comparison matrix under a CPU profile, so `go tool pprof sched.pprof`
# shows where wake-up/grant time goes after a scheduler change.
bench-sched:
	$(GO) test -bench=BenchmarkEngineCompare -benchmem -run='^$$' \
		-cpuprofile=sched.pprof -o step-bench.test .
	@echo "profile written to sched.pprof (inspect with: $(GO) tool pprof step-bench.test sched.pprof)"

# bench-json runs the bench smoke suite (figure benchmarks plus the
# sequential-vs-parallel DES engine comparison, and the store's journal
# commit) and renders BENCH_core.json (ns/op per figure, engine speedups)
# so the simulator core's perf trajectory is tracked from PR to PR.
bench-json:
	$(GO) test -bench='BenchmarkEngineCompare|BenchmarkFigure|BenchmarkMoELayer|BenchmarkAttention|BenchmarkSimpleMoE|BenchmarkDESChannel|BenchmarkCompileOnceRunMany|BenchmarkCommitJournal' \
		-benchtime=$(benchtime) -run='^$$' . ./internal/store > bench-json.out
	$(GO) run ./cmd/benchjson -out BENCH_core.json < bench-json.out
	@rm -f bench-json.out
	@echo wrote BENCH_core.json

# exp-smoke regenerates every paper artifact through `stepctl exp`
# (quick, seed 7): stdout must equal the committed goldens in
# `stepctl exp -list` order, -out must write one CSV per artifact, and
# an unknown -fig must fail.
exp-smoke:
	bash examples/exp_smoke.sh

# sweep-smoke runs the committed scenario specs end to end through the
# stepctl sweep CLI. Each spec declares workers_axis [1,8] x
# sim_workers_axis [1,8], so a passing run also certifies byte-identical
# tables across the harness/DES-engine matrix.
sweep-smoke:
	$(GO) run ./cmd/stepctl sweep -spec examples/specs/gqa_ratio.json
	$(GO) run ./cmd/stepctl sweep -spec examples/specs/long_context.json
	$(GO) run ./cmd/stepctl sweep -spec examples/specs/mixed_serving.json
	$(GO) run ./cmd/stepctl sweep -spec examples/specs/program_pipeline.json

# examples-smoke builds and runs every example program, so regressions in
# the public API (the Program/Session run path, the workload builders,
# the program IR loader) surface in CI instead of on users. It also runs
# a paper workload (dynamic attention) from its committed IR golden.
examples-smoke:
	@set -e; for d in examples/*/; do \
		[ -f "$$d/main.go" ] || continue; \
		echo "== go run ./$$d"; \
		$(GO) run "./$$d" > /dev/null; \
	done
	$(GO) run ./cmd/stepctl program compile -ir examples/programs/pipeline.json > /dev/null
	$(GO) run ./cmd/stepctl program dot -ir examples/programs/pipeline.json > /dev/null
	$(GO) run ./cmd/stepctl program run -ir examples/programs/pipeline.json > /dev/null
	$(GO) run ./cmd/stepctl program run -ir internal/graph/testdata/ir/paper-attention-dynamic.json > /dev/null
	@echo examples smoke OK

# serve-smoke drives `stepctl serve` end to end over HTTP: POST a
# canned spec, diff the served table against the committed golden
# artifact, and require the repeated POST to hit the result cache.
serve-smoke:
	bash examples/serve_smoke.sh

# stream-smoke drives the per-point result pipeline end to end: batch
# vs -follow sweeps, `stepctl watch` tailing a live served job, the
# journal replay of a cache hit, and the server's replay of an entry
# `stepctl sweep -cache` wrote — all must render identical bytes.
stream-smoke:
	bash examples/stream_smoke.sh

# fabric-smoke drives the distributed-sweep fabric across real
# processes: a serving coordinator, a worker killed mid-sweep, a second
# worker picking up the remainder — the final table must still match
# the committed golden artifact byte for byte.
fabric-smoke:
	bash examples/fabric_smoke.sh

# fuzz-smoke runs each fuzz target briefly past its seed corpus: the
# spec loader (load -> canonicalize -> load must land on one content
# address) and the program IR loader (parse -> canonicalize -> parse
# must be stable). Ten seconds each, two fuzz workers. Minimizing a new
# corpus entry is capped at 200 runs: at the default (up to 60 s per
# entry) minimizing one large program IR takes the whole budget, and
# the IR fuzzer otherwise makes almost no fresh executions.
FUZZFLAGS = -run '^$$' -fuzztime 10s -fuzzminimizetime 200x -parallel 2

fuzz-smoke:
	$(GO) test ./internal/scenario $(FUZZFLAGS) -fuzz '^FuzzSpecJSON$$'
	$(GO) test ./internal/graph $(FUZZFLAGS) -fuzz '^FuzzProgramIR$$'

# cover is the full test suite run with a coverage profile plus a
# whole-module summary; CI's test job runs it *in place of* `test`, so
# coverage costs no second suite execution.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

check: build vet fmt-check lint test race bench-smoke bench-module-smoke exp-smoke sweep-smoke serve-smoke stream-smoke fabric-smoke examples-smoke fuzz-smoke
