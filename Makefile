GO ?= go

.PHONY: build build-examples build-cmds vet lint fmtcheck test race cover allocs perfbench-check tier1 crash bench bench-baseline bench-serve bench-pr4 bench-pr4-baseline bench-pr5 bench-pr6 bench-pr8 bench-pr9 bench-pr10

build:
	$(GO) build ./...

# build-examples compiles every directory under examples/ explicitly, so
# API drift in the examples fails the tier-1 gate even if a future build
# target narrows its package list.
build-examples:
	$(GO) build ./examples/...

# build-cmds compiles every command explicitly for the same reason — the
# serving binary (cmd/serve) in particular must always build.
build-cmds:
	$(GO) build ./cmd/...

vet:
	$(GO) vet ./...

# lint runs the project's own invariant checkers (cmd/vetkit — hotpath,
# walbeforeapply, lockdiscipline, closecheck, metriclint; see the README's
# "Static analysis" section) and, when the pinned tools are present in the
# module cache, staticcheck and govulncheck. The external tools are
# best-effort: this repo builds offline with zero dependencies, so an
# unreachable proxy skips them with a note instead of failing the gate.
# vetkit itself always runs and any finding fails the build.
STATICCHECK_VERSION = honnef.co/go/tools/cmd/staticcheck@2025.1
GOVULNCHECK_VERSION = golang.org/x/vuln/cmd/govulncheck@v1.1.4

lint:
	$(GO) run ./cmd/vetkit ./...
	@if $(GO) run $(STATICCHECK_VERSION) ./... 2>/dev/null; then \
	  echo "lint: staticcheck ok"; \
	else \
	  echo "lint: staticcheck unavailable or found issues (offline builds skip it; run '$(GO) run $(STATICCHECK_VERSION) ./...' to see details)"; \
	fi
	@if $(GO) run $(GOVULNCHECK_VERSION) ./... 2>/dev/null; then \
	  echo "lint: govulncheck ok"; \
	else \
	  echo "lint: govulncheck unavailable (offline builds skip it)"; \
	fi

# fmtcheck fails loudly on unformatted files (gofmt is not enforced by any
# other target, and unformatted files turn every editor save into noise).
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
	  echo "fmtcheck: FAIL — gofmt needed on:"; echo "$$out"; exit 1; \
	fi; echo "fmtcheck: ok"

test:
	$(GO) test ./...

# race covers the packages whose hot paths run under internal/par worker
# pools (disjoint-write contracts), the facade's concurrent serving and
# resolve paths (Model.Score/ScoreBatch/Resolve from many goroutines while
# the match store mutates), the online match store itself (concurrent
# Add/Delete/probe across compaction), the durability layer (concurrent
# WAL append / snapshot rotation / replay), the HTTP serving layer
# (direct scoring + model hot-swap under load), and rule generation
# running beside classifier training (internal/pipeline's
# MatcherAndFeatures, which the root TestTrain* tests drive through Train,
# cancellation included, plus the nn and dtree packages).
race:
	$(GO) test -race ./internal/par/... ./internal/featstore/... ./internal/rules/... ./internal/core/... ./internal/blocking/...
	$(GO) test -race ./internal/server/... ./internal/match/... ./internal/wal/... ./internal/partition/... ./internal/obs/...
	$(GO) test -race ./internal/nn/... ./internal/dtree/...
	$(GO) test -race -run 'TestScoreConcurrent|TestScoreBatchConcurrent|TestResolveConcurrent|TestTrain' .

# cover enforces statement-coverage floors on the serving-grade packages:
# the HTTP layer, the feature store, and the facade (golden
# regression + Save/Load property tests live there). Raise the floors as
# coverage grows; never lower them.
COVER_FLOORS = ./internal/server:80 ./internal/featstore:85 ./internal/match:80 ./internal/wal:85 ./internal/analysis:80 ./internal/partition:80 ./internal/obs:85 .:85

cover:
	@set -e; for pf in $(COVER_FLOORS); do \
	  pkg=$${pf%%:*}; floor=$${pf##*:}; \
	  out=$$($(GO) test -cover $$pkg) || { echo "$$out"; echo "cover: FAIL $$pkg: tests failed"; exit 1; }; \
	  pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
	  if [ -z "$$pct" ]; then \
	    echo "cover: FAIL $$pkg: no coverage line in output: $$out"; exit 1; \
	  fi; \
	  ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN{print (p>=f) ? 1 : 0}'); \
	  if [ "$$ok" != "1" ]; then \
	    echo "cover: FAIL $$pkg at $$pct% (floor $$floor%)"; exit 1; \
	  fi; \
	  echo "cover: $$pkg $$pct% (floor $$floor%)"; \
	done

# allocs runs the allocation-regression guards explicitly: steady-state
# Model.Score and the rules/featstore/metrics scratch paths are pinned to
# 0 allocs/op, ScoreBatch to a small per-call bound (model_alloc_test.go).
# They also run as part of `make test`; this target is the fast loop while
# working on the hot path.
allocs:
	$(GO) test -run 'Alloc' . ./internal/rules/ ./internal/featstore/ ./internal/metrics/ ./internal/nn/ ./internal/obs/

# perfbench-check builds, vets and tests the nested perfbench module. Its
# go.mod replaces repro with ../, so `go test ./...` at the root skips it,
# and a change to an internal API it uses would otherwise surface only at
# benchmark time. The target is not called perfbench: a directory of that
# name exists, so make would take the target as up to date.
perfbench-check:
	$(GO) build -C perfbench ./...
	$(GO) vet -C perfbench ./...
	$(GO) test -C perfbench ./...

# tier1 is the verification gate every PR must keep green (ROADMAP.md).
tier1: build build-examples build-cmds vet lint fmtcheck test race cover allocs perfbench-check

# crash runs the durability fault-injection and crash-recovery suites
# verbosely: torn tails at every byte boundary, bit flips, oversized length
# claims, failing writers/fsync, kill-between-rotate-and-publish, stale
# snapshot temp cleanup, damaged snapshots. All of it also runs under
# `make test`; this is the focused loop while working on recovery code.
crash:
	$(GO) test -v -count=1 -run 'Torn|BitFlip|Oversized|ZeroFilled|Failing|Rollback' ./internal/wal/
	$(GO) test -v -count=1 -run 'Crash|Corrupt|Stale|Damaged|FailingWAL' ./internal/match/

# bench refreshes the "current" section of BENCH_PR1.json with this
# machine's numbers; bench-baseline records the pre-change numbers before
# starting a perf PR. See PERFORMANCE.md.
bench:
	$(GO) run ./cmd/bench -out BENCH_PR1.json -label current

bench-baseline:
	$(GO) run ./cmd/bench -out BENCH_PR1.json -label baseline

# bench-serve measures saturated serving throughput: Server.Score from 8
# goroutines per GOMAXPROCS, ns/op per scored pair. See PERFORMANCE.md.
bench-serve:
	$(GO) test -run '^$$' -bench BenchmarkServe -benchmem ./internal/server

# bench-pr4 refreshes the "current" section of BENCH_PR4.json — the
# score-time hot path (Score, ScoreBatch, ExplainPair, blocking);
# bench-pr4-baseline records the pre-change numbers before a perf PR
# touching that path. Compare the two sections for the before/after.
SERVE_BENCHES = 'ServeScore|ServeScoreBatch|ServeExplainPair|ServeBlocking'
bench-pr4:
	$(GO) run ./cmd/bench -out BENCH_PR4.json -label current -bench $(SERVE_BENCHES) -benchtime 3s

bench-pr4-baseline:
	$(GO) run ./cmd/bench -out BENCH_PR4.json -label baseline -bench $(SERVE_BENCHES) -benchtime 3s

# bench-pr5 refreshes BENCH_PR5.json — online resolve on a warm 10k-record
# incremental index vs the naive rebuild-per-probe baseline (latency mean,
# p50/p99 and candidates per probe). The acceptance bar is warm >= 10x
# faster than rebuild; compare the two benchmarks' ns/op.
bench-pr5:
	$(GO) run ./cmd/bench -out BENCH_PR5.json -label current -bench OnlineResolve -benchtime 2s

# bench-pr6 refreshes BENCH_PR6.json — the durability layer: restart replay
# throughput (records/sec) from a pure WAL tail vs from a snapshot, and
# per-record ingest latency of the in-memory store vs the durable store at
# fsync=never/always. The mem vs fsync=never gap is the WAL framing
# overhead; fsync=always buys an fsync-per-ack durability guarantee.
bench-pr6:
	$(GO) run ./cmd/bench -out BENCH_PR6.json -label current -bench Durable -benchtime 2s

# bench-pr8 refreshes BENCH_PR8.json — the bounded-memory batch pipeline:
# the materialized path (blocking.Candidates + a full featstore.Store) vs
# the streamed path (blocking.CandidateSeq + featstore.Streamer windows)
# folding every metric row of a ~106k-record workload (~219k candidate
# pairs). The acceptance bar is >= 10x lower peak heap growth (the peakB
# metric) with no wall-time regression; the -compare line prints the
# materialized/streamed ratios directly after recording.
bench-pr8:
	$(GO) run ./cmd/bench -out BENCH_PR8.json -label current -bench BatchPipeline -benchtime 3x \
	  -compare BatchPipelineMaterialized,BatchPipelineStreamed

# bench-pr9 refreshes BENCH_PR9.json — the partitioned scatter-gather
# resolve path under closed-loop HTTP load (cmd/loadgen): the same mixed
# add/delete/resolve traffic against a 1-partition and a 4-partition
# server, stepping client concurrency and recording throughput plus
# p50/p95/p99 resolve latency per step. See PERFORMANCE.md for the
# crossover analysis.
LOADGEN_FLAGS = -steps 1,2,4,8,16,32 -step-duration 2s -preload 400 -out BENCH_PR9.json
bench-pr9:
	$(GO) run ./cmd/loadgen $(LOADGEN_FLAGS) -partitions 1 -label parts-1
	$(GO) run ./cmd/loadgen $(LOADGEN_FLAGS) -partitions 4 -label parts-4

# bench-pr10 measures the observability layer itself: the warm resolve
# path with stage tracing off vs on (the acceptance bar is the delta
# staying within run-to-run noise) plus a loadgen pass whose per-step
# metrics now carry the server-side stage histograms scraped from GET
# /metrics (where inside the server the client-visible p99 was spent).
LOADGEN10_FLAGS = -steps 1,4,16 -step-duration 2s -preload 400 -out BENCH_PR10.json
bench-pr10:
	$(GO) run ./cmd/bench -bench 'Obs' -benchtime 200x -out BENCH_PR10.json -label current
	$(GO) run ./cmd/loadgen $(LOADGEN10_FLAGS) -partitions 4 -label parts-4
