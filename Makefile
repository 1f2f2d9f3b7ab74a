# Build, verify, and benchmark the RTK-Spec TRON reproduction.
#
#   make check   - tier-1 gate: vet + build + tests + race detector
#   make bench   - co-simulation speed benchmark -> BENCH_sysc.json
#   make bench-all  - every benchmark, no JSON capture
#   make bench-smoke - every benchmark, one iteration each

GO ?= go
BENCHTIME ?= 2s

.PHONY: all build test vet race check golden-386 serve serve-fleet serve-e2e serve-load serve-load-guard serve-stream chaos chaos-traced snapshot-diff fuzz-smoke bench bench-guard bench-all bench-smoke perf-smoke scenarios synthetic-campaign clean

all: check

build:
	$(GO) build ./...

# test also runs the benchmark module's tests (its schema checks, a
# 1 %-scale smoke run and the replica drift check), which the root ./...
# never compiles.
test:
	$(GO) test ./...
	cd bench && $(GO) test ./...

# vet also vets the benchmark module (bench/ is its own module, which the
# root ./... never compiles), fails when any file is not gofmt-formatted, and
# fails when the go lines of go.mod and bench/go.mod differ: bench/ builds
# the root module through a replace, so a root-only bump breaks its build.
# Last, it fails when any float arithmetic in the module fuses: an arm64
# build compiles x*y+z into one fused multiply-add unless an explicit
# float64(...) conversion forbids it, and the skipped rounding would change
# generated task sets, the collector's float sums or the energy pro-rating
# on arm64 hosts. amd64 and 386 builds never fuse, so the check reads the
# arm64 assembly of every package (local toolchain, no network), streamed
# through awk after a plain arm64 build has shown that the module compiles.
vet:
	@root=$$(sed -n 's/^go //p' go.mod); bench=$$(sed -n 's/^go //p' bench/go.mod); \
	if [ "$$root" != "$$bench" ]; then \
		echo "go.mod says go $$root but bench/go.mod says go $$bench: raise both go lines together"; exit 1; fi
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	GOARCH=arm64 $(GO) build -o /dev/null ./...
	@fused=$$(GOARCH=arm64 $(GO) build -o /dev/null -gcflags='repro/...=-S' ./... 2>&1 | \
		awk '/ STEXT /{fn=$$1; n++} $$4 ~ /^(FMADDD|FMSUBD|FNMADDD|FNMSUBD)$$/{print fn ": " $$3 " " $$4} \
			END{if (n == 0) print "the arm64 build listed no assembly"}'); \
	if [ -n "$$fused" ]; then \
		echo "fused multiply-adds on arm64 (wrap the product in float64(...)):"; \
		printf '%s\n' "$$fused"; exit 1; fi

race:
	$(GO) test -race ./...

# The golden digests on a second float path: a 386 build compiles the
# model with a different backend and 32-bit ints, so an artifact whose
# bytes depend on the platform rather than on the model fails its digest
# here as well as on amd64. The engine and kernel packages run too: the
# kernel's tick-grid arithmetic is 64-bit integer math on 32-bit ints.
golden-386:
	GOARCH=386 $(GO) test ./internal/run ./internal/workload ./internal/tkernel ./internal/sysc ./internal/app

check: vet build test race

# Simulation-as-a-service: the bounded HTTP/JSON job server over the run
# façade. POST a run.Spec to /api/v1/jobs, poll it, download artifacts; see
# README "Serving simulations" for curl examples.
serve:
	$(GO) run ./cmd/rtkserve -addr :8080 -workers 4 -queue 28

# In-process fleet: 4 shards behind a consistent-hash router, submissions
# routed by Spec content hash so each shard's result cache works
# fleet-wide. See README "Serving at scale".
serve-fleet:
	$(GO) run ./cmd/rtkserve -addr :8080 -shards 4 -workers 2

# Server end-to-end gate: 32 concurrent jobs on a 4-worker pool with 429
# backpressure past capacity, graceful-shutdown drain, job deadlines,
# byte-identical CLI-vs-HTTP artifacts for a fixed-seed Spec, plus the
# fleet-scale contracts — cache hits byte-identical to cold runs, 32
# concurrent duplicates collapsing to one simulation, and deterministic
# shard routing.
serve-e2e:
	$(GO) test ./internal/server -run \
		'TestBackpressure|TestGracefulShutdown|TestDeadlineExceeded|TestDeterminismHTTPvsCLI|TestCacheHitByteIdentical|TestSingleflightDedupe' -v
	$(GO) test ./internal/router -run 'TestRing|TestRouter' -v

# Fleet load harness: a duplicate-heavy workload against an in-process
# 2-shard fleet, recording jobs/s, admission latency percentiles, and the
# cache hit ratio to BENCH_serve.json, plus the -stream section (first-byte
# latency and streamed-vs-buffered live heap of a long-trace job). Fails
# hard if duplicates are not byte-identical or the fleet simulates a
# distinct Spec more than once.
serve-load:
	$(GO) run ./cmd/serveload -shards 2 -workers 2 -jobs 24 -dup 4 -stream -out BENCH_serve.json

# Re-run the load harness and fail if jobs/s falls more than 40% below the
# committed BENCH_serve.json (writes fresh numbers to a scratch file; the
# wide band absorbs shared-runner noise, the correctness gates are exact).
serve-load-guard:
	$(GO) run ./cmd/serveload -shards 2 -workers 2 -jobs 24 -dup 4 \
		-out /tmp/BENCH_serve.new.json -baseline BENCH_serve.json -tolerance 40

# Streaming gate: one ~10 MiB-trace job run buffered and then streamed
# (?stream=1 chunked download + SSE event feed) against a tiny 64 KiB
# spill window. Fails unless streamed bytes are identical to buffered,
# the first byte arrives while the job is still running, and the streamed
# server's peak live heap sits at least half a trace below the buffered
# one's — the O(window)-vs-O(trace) memory contract.
serve-stream:
	$(GO) run ./cmd/serveload -shards 1 -workers 2 -jobs 4 -dup 2 -stream \
		-out /tmp/BENCH_stream.json

# Deterministic fault-injection campaign with kernel invariant oracles.
# Behavior-level faults must all PASS on a correct kernel; add CHAOS_FLAGS
# (e.g. -corrupt -minimize) to exercise the oracle self-test path.
chaos:
	$(GO) run ./cmd/chaos -seeds 200 -workers 0 $(CHAOS_FLAGS)

# 20-seed campaign replayed with the streaming Perfetto exporter attached:
# every job must pass its oracles and every emitted trace must schema-check.
chaos-traced:
	$(GO) test ./internal/chaos -run 'TestTracedCampaignSchema|TestRunJobTraceVerdictMatchesRunJob' -v

# Snapshot/restore byte-equality gate: pausing at a quiescent point, warm
# sweep forking, snapshot-resume over the run facade and over HTTP, and
# warm chaos-ddmin trials must all be byte- (or digest-) identical to their
# cold counterparts.
snapshot-diff:
	$(GO) test ./internal/run -run 'TestSyntheticCheckpointByteEquality|TestVideogameCheckpointByteEquality|TestSnapshotResumeByteEquality|TestSnapshotBytesPinned|TestWarmSweep' -v
	$(GO) test ./internal/chaos -run 'TestWarmTrialMatchesCold' -v
	$(GO) test ./internal/server -run 'TestResumeFromOverHTTP' -v

# Fuzz smoke: each fuzz target for 10 s — the hand-written artifact
# encoders (Perfetto records, metrics.json and their shared string and
# float helpers) against encoding/json, and the decoders that take bytes
# from outside the process (Spec JSON, snapshot headers, task-set JSON, the
# artifact store's disk-tier indexes, the client's SSE event feed).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPerfettoRecord$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzMetricsReport$$' -fuzztime 10s ./internal/metrics
	$(GO) test -run '^$$' -fuzz '^FuzzAppendString$$' -fuzztime 10s ./internal/jsonenc
	$(GO) test -run '^$$' -fuzz '^FuzzAppendFloat$$' -fuzztime 10s ./internal/jsonenc
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/run
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMeta$$' -fuzztime 10s ./internal/snapshot
	$(GO) test -run '^$$' -fuzz '^FuzzTaskSetJSON$$' -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzLoadIndex$$' -fuzztime 10s ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzEventStream$$' -fuzztime 10s ./internal/client

# Table 2 co-simulation speed (the paper's S/R headline metric) per
# configuration, plus the bare-kernel synthetic workload and the
# warm-start sweep benchmark, captured to BENCH_sysc.json so the perf
# trajectory is tracked across PRs.
bench:
	$(GO) test -run '^$$' \
		-bench 'BenchmarkTable2CoSimSpeed|BenchmarkSyntheticCoSimSpeed|BenchmarkSweepWarmStart' \
		-benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -metric simsec/s -out BENCH_sysc.json

# Re-run the speed benchmarks and fail on regression below the committed
# BENCH_sysc.json baseline (writes the fresh numbers to scratch files,
# never the baseline). Two tolerances: 5% for the single-run kernel
# benchmarks, 20% for the warm-start sweep, whose cold/warm ratio (the
# ~4x forking speedup) matters more than its absolute noise floor.
bench-guard:
	$(GO) test -run '^$$' -bench BenchmarkTable2CoSimSpeed -benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -metric simsec/s -out /tmp/BENCH_sysc.new.json \
			-baseline BENCH_sysc.json -tolerance 5
	$(GO) test -run '^$$' -bench BenchmarkSweepWarmStart -benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -metric simsec/s -out /tmp/BENCH_sweep.new.json \
			-baseline BENCH_sysc.json -tolerance 20

bench-all:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) ./...

# Every Go benchmark for a single iteration: catches a benchmark that
# panics or fails (b.Fatal) without timing anything.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# CI perf smoke: the headline gui=off/frame=off configuration (plus its idle
# twins) and the fixed synthetic workload against the committed baseline,
# with a generous 20% tolerance to absorb shared-runner noise while still
# catching order-of-magnitude regressions in the kernel hot path.
perf-smoke:
	$(GO) test -run '^$$' \
		-bench 'BenchmarkTable2CoSimSpeed/gui=off/frame=off|BenchmarkSyntheticCoSimSpeed' \
		-benchtime 1s . \
		| $(GO) run ./cmd/benchjson -metric simsec/s -out /tmp/BENCH_sysc.smoke.json \
			-baseline BENCH_sysc.json -tolerance 20

# Run every example scenario under examples/scenarios once through the
# -spec file path (the same run.Spec JSON rtkserve accepts). Each file must
# validate, build, and complete.
scenarios:
	@for f in examples/scenarios/*.json; do \
		echo "== $$f"; \
		$(GO) run ./cmd/rtkspec -spec $$f || exit 1; \
	done

# Seeded synthetic chaos campaign: every job draws a fresh generated task
# set from its own seed and must pass all kernel invariant oracles.
synthetic-campaign:
	$(GO) run ./cmd/chaos -seeds 50 -gen "tasks=6,util=0.6,irqs=2"

clean:
	$(GO) clean ./...
