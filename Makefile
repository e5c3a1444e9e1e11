# Shared targets for CI (.github/workflows/ci.yml) and humans.

GO ?= go

.PHONY: all build loc vet fmt fmt-check lint test race bench bench-smoke bench-json bench-sched sweep-smoke serve-smoke stream-smoke fabric-smoke examples-smoke cover check

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
# under `make test`.
race:
	$(GO) test -race -short ./internal/...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# One iteration per benchmark, with -benchmem: exercises every
# experiment's bench path and feeds the regression gate below. Allocation
# counts at -benchtime=1x are deterministic; timings are not, which is why
# bench-compare fails only on allocs/op growth (ns/op growth warns — see
# cmd/benchjson).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' ./... > bench-smoke.out || \
		{ cat bench-smoke.out; rm -f bench-smoke.out; exit 1; }
	@cat bench-smoke.out
	$(GO) run ./cmd/benchjson -compare BENCH_core.json < bench-smoke.out
	@rm -f bench-smoke.out
	$(GO) test -run TestSchedStatsGate -v .

# bench-sched profiles the scheduler's coordination cost: the engine
# comparison matrix under a CPU profile, so `go tool pprof sched.pprof`
# shows where wake-up/grant time goes after a scheduler change.
bench-sched:
	$(GO) test -bench=BenchmarkEngineCompare -benchmem -run='^$$' \
		-cpuprofile=sched.pprof -o step-bench.test .
	@echo "profile written to sched.pprof (inspect with: $(GO) tool pprof step-bench.test sched.pprof)"

# bench-json runs the bench smoke suite (figure benchmarks plus the
# sequential-vs-parallel DES engine comparison) and renders BENCH_core.json
# (ns/op per figure, engine speedups) so the simulator core's perf
# trajectory is tracked from PR to PR.
bench-json:
	$(GO) test -bench='BenchmarkEngineCompare|BenchmarkFigure|BenchmarkMoELayer|BenchmarkAttention|BenchmarkSimpleMoE|BenchmarkDESChannel|BenchmarkCompileOnceRunMany' \
		-benchtime=2x -run='^$$' . > bench-json.out
	$(GO) run ./cmd/benchjson -out BENCH_core.json < bench-json.out
	@rm -f bench-json.out
	@echo wrote BENCH_core.json

# sweep-smoke runs the committed scenario specs end to end through the
# stepctl sweep CLI. Each spec declares workers_axis [1,8] x
# sim_workers_axis [1,8], so a passing run also certifies byte-identical
# tables across the harness/DES-engine matrix.
sweep-smoke:
	$(GO) run ./cmd/stepctl sweep -spec examples/specs/gqa_ratio.json
	$(GO) run ./cmd/stepctl sweep -spec examples/specs/long_context.json
	$(GO) run ./cmd/stepctl sweep -spec examples/specs/mixed_serving.json
	$(GO) run ./cmd/stepctl sweep -spec examples/specs/program_pipeline.json

# examples-smoke builds and runs every example program, so API-shim
# regressions (the deprecated Graph.Run path, the Program/Session API,
# the program IR loader) surface in CI instead of on users.
examples-smoke:
	@set -e; for d in examples/*/; do \
		[ -f "$$d/main.go" ] || continue; \
		echo "== go run ./$$d"; \
		$(GO) run "./$$d" > /dev/null; \
	done
	$(GO) run ./cmd/stepctl program compile -ir examples/programs/pipeline.json > /dev/null
	$(GO) run ./cmd/stepctl program dot -ir examples/programs/pipeline.json > /dev/null
	$(GO) run ./cmd/stepctl program run -ir examples/programs/pipeline.json > /dev/null
	@echo examples smoke OK

# serve-smoke drives `stepctl serve` end to end over HTTP: POST a
# canned spec, diff the served table against the committed golden
# artifact, and require the repeated POST to hit the result cache.
serve-smoke:
	bash examples/serve_smoke.sh

# stream-smoke drives the per-point result pipeline end to end: batch
# vs -follow sweeps, `stepctl watch` tailing a live served job, and the
# journal replay of a cache hit — all four must render identical bytes.
stream-smoke:
	bash examples/stream_smoke.sh

# fabric-smoke drives the distributed-sweep fabric across real
# processes: a serving coordinator, a worker killed mid-sweep, a second
# worker picking up the remainder — the final table must still match
# the committed golden artifact byte for byte.
fabric-smoke:
	bash examples/fabric_smoke.sh

# cover is the full test suite run with a coverage profile plus a
# whole-module summary; CI's test job runs it *in place of* `test`, so
# coverage costs no second suite execution.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

check: build vet fmt-check lint test race bench-smoke sweep-smoke serve-smoke stream-smoke fabric-smoke examples-smoke
