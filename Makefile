GO ?= go

.PHONY: build build-examples build-cmds vet lint fmtcheck test gobench-check fuzz race cover allocs perfbench-check tier1 crash

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
# "Static analysis" section) and, when the pinned tools are already in the
# module cache, staticcheck and govulncheck. Every external tool is probed
# and run with GOPROXY=off, so lint never reaches for the module proxy: a
# tool missing from the cache is skipped with a note. vetkit and a cached
# staticcheck fail the gate on any finding. govulncheck stays best-effort,
# since it fetches its vulnerability database over the network.
STATICCHECK_VERSION = honnef.co/go/tools/cmd/staticcheck@2025.1
GOVULNCHECK_VERSION = golang.org/x/vuln/cmd/govulncheck@v1.1.4

lint:
	$(GO) run ./cmd/vetkit ./...
	@if GOPROXY=off $(GO) run $(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
	  GOPROXY=off $(GO) run $(STATICCHECK_VERSION) ./... || { echo "lint: staticcheck found issues"; exit 1; }; \
	  echo "lint: staticcheck ok"; \
	else \
	  echo "lint: staticcheck skipped: $(STATICCHECK_VERSION) is not in the module cache"; \
	fi
	@if GOPROXY=off $(GO) run $(GOVULNCHECK_VERSION) -version >/dev/null 2>&1; then \
	  if GOPROXY=off $(GO) run $(GOVULNCHECK_VERSION) ./...; then \
	    echo "lint: govulncheck ok"; \
	  else \
	    echo "lint: govulncheck failed or could not fetch its database (best-effort, not gating)"; \
	  fi; \
	else \
	  echo "lint: govulncheck skipped: $(GOVULNCHECK_VERSION) is not in the module cache"; \
	fi

# fmtcheck fails loudly on unformatted files (gofmt is not enforced by any
# other target, and unformatted files turn every editor save into noise).
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
	  echo "fmtcheck: FAIL — gofmt needed on:"; echo "$$out"; exit 1; \
	fi; echo "fmtcheck: ok"

test:
	$(GO) test ./...

# gobench-check runs every Benchmark* once. `go test ./...` only compiles
# them, and they are the one way to reproduce PERFORMANCE.md's layer
# tables, so a bench that fails or no longer runs fails the gate here.
gobench-check:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# fuzz runs each native fuzz target for 10s; `go test -fuzz` takes one
# target per run. Their seed corpora also run under `make test`. The
# fuzzer minimizes every new interesting input for up to 60s by default,
# which stalls a 10s run after its first find; -fuzzminimizetime bounds
# that to 10 executions, so the time goes to new inputs.
FUZZ_TARGETS = ./internal/match:FuzzDecodeOp ./internal/match:FuzzDecodeSnapHeader ./internal/metrics:FuzzResidueMatchesReset ./internal/partition:FuzzPartitionedMatchesFlat ./internal/nn:FuzzTrainBatchMatchesReference

fuzz:
	@set -e; for pt in $(FUZZ_TARGETS); do \
	  pkg=$${pt%%:*}; fn=$${pt##*:}; \
	  $(GO) test -run '^$$' -fuzz "^$$fn\$$" -fuzztime 10s -fuzzminimizetime 10x $$pkg; \
	done

# race runs the whole test suite under the race detector: internal/par
# worker pools (classifier training and labeling, the baselines, active
# learning), the facade's concurrent scoring and resolve paths, the online
# match store, the durability layer, the partitioned legs, the HTTP serving
# layer and rule generation beside classifier training. The steady-state
# allocation pins in model_alloc_test.go build only without -race, since
# the race detector makes sync.Pool drop pooled scratch.
race:
	$(GO) test -race ./...

# cover enforces statement-coverage floors on the serving-grade packages:
# the HTTP layer, the feature store, the online match store, the WAL, the
# vetkit analysis framework, the partition router, the observability
# layer, and the facade (golden regression + Save/Load property tests
# live there). Raise the floors as coverage grows; never lower them.
COVER_FLOORS = ./internal/server:80 ./internal/featstore:90 ./internal/match:80 ./internal/wal:85 ./internal/analysis:80 ./internal/partition:80 ./internal/obs:85 .:85

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
# 0 allocs/op, ScoreBatch to a small per-call bound (model_alloc_test.go),
# and the classifier's labeling and training to counts that do not grow
# with the number of rows. They also run as part of `make test`; this
# target is the fast loop while working on the hot path.
allocs:
	$(GO) test -run 'Alloc' . ./internal/rules/ ./internal/featstore/ ./internal/metrics/ ./internal/nn/ ./internal/obs/ ./internal/classifier/

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
tier1: build build-examples build-cmds vet lint fmtcheck test gobench-check fuzz race cover allocs perfbench-check

# crash runs the durability fault-injection and crash-recovery suites
# verbosely: torn tails at every byte boundary, bit flips, oversized length
# claims, failing writers/fsync, kill-between-rotate-and-publish, stale
# snapshot temp cleanup, damaged snapshots. All of it also runs under
# `make test`; this is the focused loop while working on recovery code.
crash:
	$(GO) test -v -count=1 -run 'Torn|BitFlip|Oversized|ZeroFilled|Failing|Rollback' ./internal/wal/
	$(GO) test -v -count=1 -run 'Crash|Corrupt|Stale|Damaged|FailingWAL' ./internal/match/
