# Tier-1 verification plus the race-enabled CI loop for the C4
# reproduction. `make ci` is the one-command gate: lint (gofmt + vet +
# the c4vet determinism-lint suite) + build + the full test suite, then
# the short suite again under the race detector (which also proves the
# parallel scenario and campaign runners share no state), the smoke
# trials, a short pass of every fuzzer, and a checked pass of the host
# benchmark. The GitHub
# workflow (.github/workflows/ci.yml) runs the same targets plus the
# bench-regression guard and a coverage report, so local and CI gates
# agree.

GO ?= go
SHA := $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)

.PHONY: all build vet c4vet lint fmt-check test test-race kernel-race \
	tenancy-smoke telemetry-smoke plan-smoke serve-smoke trace-smoke \
	campaign-smoke fuzz-short perfbench-check docker \
	ci bench experiments bench-json bench-baseline bench-check cover clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The determinism-lint suite (internal/analysis via cmd/c4vet): the
# replay invariants that have each shipped as a real bug before —
# map-order float accumulation, wall-clock reads in simulation packages,
# process-global randomness, swallowed telemetry errors, severed
# Contexts — plus the deprecated-API gate. Zero unsuppressed findings or
# the build fails; suppress per line with `//c4vet:allow <name> <reason>`
# (reason mandatory, unused directives are themselves findings).
c4vet:
	$(GO) run ./cmd/c4vet ./...

# The blocking first gate, locally and in CI: formatting, stock vet
# passes (copylocks, lostcancel, ...), then the c4vet suite.
lint: fmt-check vet c4vet

# Fast formatting gate: fails listing any file gofmt would rewrite.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Full tier-1 suite: every scenario's shape check plus the byte-identical
# serial-vs-parallel replay comparison.
test:
	$(GO) test ./...

# Short suite under the race detector: slow sweeps are skipped, every
# other scenario still runs twice (serially and on the worker pool).
test-race:
	$(GO) test -race -short ./...

# The network kernel's parallel component settle under the race detector,
# without -short: the netsim suite (equivalence against the per-flow
# oracle, serial and on 4 workers, with the allocation invariant checker
# armed after every recompute, plus the 256-node oracle sweep), the
# engine heap tests and the pinned collective-level accl tests, then the
# 256-node netsim/scale-* scenarios, which fill many components on worker
# pools.
kernel-race:
	$(GO) test -race ./internal/sim/ ./internal/netsim/ ./internal/accl/
	$(GO) run -race ./cmd/c4bench -only 'netsim/*'

# One small multi-tenant churn trial through the registry: Poisson job
# arrivals/departures on a shared fabric, with the shape check asserting
# every tenant made progress. Fast enough to run on every CI push.
tenancy-smoke:
	$(GO) run ./cmd/c4bench -only tenancy/churn

# The streaming-telemetry race through the registry: online detector vs
# batch C4D on three fault archetypes, with the shape check asserting the
# online time-to-detect strictly beats batch for every fault.
telemetry-smoke:
	$(GO) run ./cmd/c4bench -only online/detection-latency

# The training-iteration planner through the registry: a compiled 1F1B
# schedule with bucketed gradient sync, overlap on vs off, with the shape
# check asserting overlap strictly reduces exposed communication.
plan-smoke:
	$(GO) run ./cmd/c4bench -only plan/overlap-ablation

# The serving-plane e2e: boot the c4serve daemon on an in-process
# loopback listener, drive one session over real HTTP + SSE, and diff the
# streamed telemetry byte-for-byte against the one-shot -telemetry-out
# path (plus exact metric equality). Hermetic: no curl, no fixed port.
serve-smoke:
	$(GO) run ./cmd/c4serve -smoke

# The tracing e2e: run a short planned session with -trace-out, then
# validate the exported Chrome trace with c4trace -check (parses, has
# spans, yields a critical path from every iteration root). Proves the
# c4sim flag, the session tracer wiring, the exporter and the parser
# against each other on every CI push.
trace-smoke:
	$(GO) run ./cmd/c4sim -plan tp8/pp2/dp2/ga2 -plan-iters 2 -trace-out TRACE_smoke.json > /dev/null
	$(GO) run ./cmd/c4trace -check TRACE_smoke.json
	$(GO) run ./cmd/c4trace TRACE_smoke.json > /dev/null
	@rm -f TRACE_smoke.json

# The campaign-subsystem e2e: run the committed smoke manifest twice —
# serially and as two shards with checkpoints — merge both paths and
# require byte-identical reports (cmp), then validate with `c4campaign
# check`. Proves the manifest/shard/merge determinism contract on every
# CI push.
campaign-smoke:
	$(GO) run ./cmd/c4campaign run -manifest campaigns/smoke.json -out CAMP_serial.json
	$(GO) run ./cmd/c4campaign run -manifest campaigns/smoke.json -shard 0/2 -checkpoint CAMP_s0.ckpt -out CAMP_p0.json
	$(GO) run ./cmd/c4campaign run -manifest campaigns/smoke.json -shard 1/2 -checkpoint CAMP_s1.ckpt -out CAMP_p1.json
	$(GO) run ./cmd/c4campaign merge -manifest campaigns/smoke.json -check -out CAMP_merged_serial.json CAMP_serial.json > /dev/null
	$(GO) run ./cmd/c4campaign merge -manifest campaigns/smoke.json -check -out CAMP_merged.json CAMP_p0.json CAMP_p1.json > /dev/null
	cmp CAMP_merged_serial.json CAMP_merged.json
	$(GO) run ./cmd/c4campaign check -manifest campaigns/smoke.json CAMP_merged.json
	@rm -f CAMP_serial.json CAMP_p0.json CAMP_p1.json CAMP_merged_serial.json CAMP_merged.json CAMP_s0.ckpt CAMP_s1.ckpt

# Every fuzz target for a short run each (go test -fuzz takes one target
# per invocation): the JSONL encoder against the encoding/json oracle,
# the stream reader's decode/re-encode round trip, and the campaign
# manifest and partial-artifact decoders (hash-stable re-read, byte-exact
# round trip). The seed corpora also run in the plain test suite.
FUZZ_TARGETS := ./internal/telemetry:FuzzAppendRecord ./internal/telemetry:FuzzReadStream \
	./internal/campaign:FuzzReadManifest ./internal/campaign:FuzzReadPartial
FUZZTIME ?= 10s
fuzz-short:
	@for t in $(FUZZ_TARGETS); do \
		pkg="$${t%%:*}"; fn="$${t#*:}"; \
		echo "fuzz: $$pkg $$fn"; \
		$(GO) test -run '^$$' -fuzz "^$$fn\$$" -fuzztime $(FUZZTIME) "$$pkg" || exit 1; \
	done

# The host benchmark module (perfbench/, its own go.mod): vet and unit
# tests, then one checked pass of each workload mix. perfbench exits 0
# even when runs fail, so each pass must end in a result line reporting
# "correct":true — every run succeeded and matched its recorded reference
# digests.
PERFBENCH_WORKLOADS := campaign pipeline3d detect
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "perfbench: $$w"; \
		last="$$(bash perfbench/run.sh --workload $$w --seed 0 --seconds 1 --trace 0 | tail -n 1)" || exit 1; \
		case "$$last" in \
			*'"correct":true'*) ;; \
			*) echo "FAIL: perfbench $$w: $$last"; exit 1;; \
		esac; \
	done

# Container image for the daemon (requires docker; CI runs it on push).
docker:
	docker build -t c4serve:$(SHA) .

ci: lint build test test-race kernel-race tenancy-smoke telemetry-smoke plan-smoke serve-smoke trace-smoke campaign-smoke fuzz-short perfbench-check

# Microbenchmarks, including the incremental-vs-full-recompute pair
# (internal/telemetry: BenchmarkIncrementalObserve vs
# BenchmarkBatchAnalyzePass) behind the online/scale-sweep scenario and
# the network-kernel benchmarks (internal/netsim: the per-flow test
# oracle, BenchmarkRecomputePerFlow, vs the flow-class kernel serial,
# BenchmarkRecomputeAggregated, and on 4 workers, BenchmarkSettleParallel,
# plus BenchmarkRecomputeChurn, single-flow churn across five components
# that exercises the incremental component refill).
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Regenerate the paper-vs-measured table from a full registry sweep.
experiments:
	$(GO) run ./cmd/c4bench -md > EXPERIMENTS.md

# Bench-regression guard. Every tracked scenario metric is deterministic,
# so the committed baseline (bench/baseline.json) pins behavior; benchdiff
# fails on >5% drift. Regenerate the baseline when a change is intended.
bench-json:
	$(GO) run ./cmd/c4bench -json > BENCH_$(SHA).json
	@echo wrote BENCH_$(SHA).json

bench-baseline:
	$(GO) run ./cmd/c4bench -json > bench/baseline.json

bench-check:
	$(GO) run ./cmd/c4bench -json > BENCH_current.json
	$(GO) run ./cmd/benchdiff -tol 0.05 bench/baseline.json BENCH_current.json

# Coverage gate: the profile plus a blocking floor on total statement
# coverage. Raise the floor when coverage improves; never lower it to
# sneak a PR through.
COVER_FLOOR ?= 72
cover:
	$(GO) test -short -covermode=atomic -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -n 1 | awk '{gsub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "FAIL: coverage $$total% below floor $(COVER_FLOOR)%"; exit 1; }

clean:
	$(GO) clean ./...
	rm -f cover.out BENCH_*.json TRACE_smoke.json CAMP_*.json CAMP_*.ckpt
