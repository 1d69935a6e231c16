# rcgo — reproduction of Gay & Aiken, "Language Support for Regions" (PLDI 2001)

GO ?= go

.PHONY: all build test test-short test-shuffle test-repeat vet staticcheck race check benchlint-files bench-oracles advise-smoke ab-smoke docs-check chaos chaos-smoke bench experiments examples fuzz fuzz-delete clean

all: check

build:
	$(GO) build ./...

# vet also holds the inline gate: the disarmed checks every hot path
# pays — the failpoint sites' Eval and Perturb, Region.settled (Use,
# the store rules), Region.note (every lifecycle event) and
# Region.checkHolder (the shared store core) — must stay within the
# compiler's inlining budget, so that a disarmed gate costs one load
# and a branch, not a call. The check fails when
# `go build -gcflags=-m . ./internal/failpoint` stops printing
# `can inline` for any of them.
INLINE_GATES := '(*Site).Eval' '(*Site).Perturb' '(*Region).settled' '(*Region).note' '(*Region).checkHolder'
vet:
	$(GO) vet ./...
	@inl=$$($(GO) build -gcflags=-m . ./internal/failpoint 2>&1 | sed -n 's/^[^ ]*: can inline //p'); \
	for f in $(INLINE_GATES); do \
		printf '%s\n' "$$inl" | grep -qxF "$$f" || { echo "vet: $$f no longer inlines (go build -gcflags=-m . ./internal/failpoint)"; exit 1; }; \
	done

# Static analysis beyond vet, when the tool is available. The gate must
# work in hermetic containers that cannot install tools, so a missing
# staticcheck binary is a skip, not a failure; findings fail the build
# when it is present.
STATICCHECK := $(shell command -v staticcheck 2>/dev/null)
staticcheck:
ifdef STATICCHECK
	$(STATICCHECK) ./...
else
	@echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
endif

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Shuffled test order: catches tests that only pass because an earlier
# test left global state (failpoints, expvar, metrics) the way they
# expect. -short keeps the pass cheap enough to run inside check.
test-shuffle:
	$(GO) test -shuffle=on -short ./...

# Repeat pass for the tests that touch process-wide state: the per-type
# chunk pools, whose second or third run of the same test inherits the
# chunks the first left behind, and the expvar names the trace tests
# publish. It also repeats the layout tests (Obj's region first,
# Region under the malloc-header line and in its 416 B size class) and
# the sealed-chunk tests (Seal: an owner's private chunk handed back to
# the park at release, hand-off and a failed delete). A test that only
# passes on a fresh process fails here.
test-repeat:
	$(GO) test -count=3 -run 'Park|Chunk|Slab|Alloc|Recycle|Seal|Unscan|Registry|Trace|RegionFirst|MallocHeader|SizeClass|CacheLines' .

# Race-detector pass: the concurrent Go-native runtime stress tests
# (region_concurrent_test.go) are only meaningful under -race. -short
# keeps the VM differential suites at a size where the ~10-20x race
# overhead stays reasonable.
race:
	$(GO) test -race -short ./...

# The default verification gate: build cleanliness, static analysis,
# the full test suite, the shuffled and the repeated pass, the race
# pass over the concurrent API, the checked-in benchmark reports
# revalidated against the current schema, the benchmark workloads'
# oracles, and the documentation anchored to the tree it describes.
check: vet staticcheck test test-shuffle test-repeat race benchlint-files bench-oracles advise-smoke ab-smoke docs-check

# Every committed rcbench report must still satisfy the benchlint
# invariants — catches schema drift against historical BENCH_*.json.
benchlint-files:
	@for f in BENCH_*.json; do \
		[ -e "$$f" ] || { echo "benchlint-files: no BENCH_*.json files"; break; }; \
		echo "benchlint < $$f"; \
		$(GO) run rcgo/cmd/benchlint < $$f || exit 1; \
	done

# The benchmark's four workloads (benchmark/, a module of its own, so
# the root's go test ./... never reaches it) run briefly in both modes,
# each checked by its oracle: every runtime change is held to the same
# end-to-end correctness the benchmark relies on.
bench-oracles:
	$(GO) -C benchmark test ./...

# Annotation-advisor end-to-end gate: replay a reduced grobner-mix
# workload with the advisor armed and print the upgrade table. rcbench
# -advise exits non-zero when the profile reports zero upgrade
# candidates — the replay plants deliberately under-annotated stores, so
# an empty report means the advisor lost the flavour lattice.
advise-smoke:
	$(GO) run rcgo/cmd/rcbench -advise -advise-allocs 2000

# A/B harness end-to-end gate: every A/B scenario for one round
# (internal/exp/ab.go: the fabric, the advisor gate, ownership,
# blocking acquisition and off-heap slabs, including the live-GC cell)
# piped through benchlint; the pipeline hand-off example; and a
# 100-iteration spin of the parallel Alloc benchmarks (per-P regions,
# and every P into one region: BenchmarkParallelAllocOneRegion, which
# the BenchmarkParallelAlloc pattern matches), of the one-request
# region lifecycle, disarmed and with metrics and a tracer armed
# (BenchmarkRegionRequest and BenchmarkRegionRequestInstrumented, which
# the same pattern matches), of counted stores into one shared
# holder region (BenchmarkParallelSetRefOneHolder) and of one
# lcc-shaped owned batch, the one benchmark whose counted stores
# register through a token (BenchmarkOwnedBatch), and of one
# grobner-shaped region on off-heap slabs, whose exhausted heap chunks
# reclaim recycles (BenchmarkRegionChurnSlab). One
# round proves the machinery, not a speedup: BENCH_pr13_ab.json records the real
# 10-round run. The chaos phases run in chaos-smoke (its own CI job)
# and, under -race, in the race target's TestChaos.
ab-smoke:
	$(GO) run rcgo/cmd/rcbench -json -reps 1 -scale 2 -workloads moss,tile -ab all | $(GO) run rcgo/cmd/benchlint
	$(GO) run rcgo/examples/pipeline
	$(GO) test -run '^$$' -bench 'BenchmarkParallelAlloc|BenchmarkRegionRequest|BenchmarkParallelSetRefOneHolder|BenchmarkOwnedBatch|BenchmarkRegionChurnSlab' -benchtime 100x -cpu 2 .

# Documentation anchor gate: every path named in ARCHITECTURE.md's
# tables must exist on disk, and every "DESIGN.md §N" cross-reference
# in *.go and *.md must resolve to a real numbered section.
docs-check:
	$(GO) run rcgo/cmd/docscheck

# Chaos harness under the race detector: a seeded sequential phase
# checked op-by-op against the reference model of the delete state
# machine, then every concurrent phase of internal/chaos's phase table
# with its failpoints armed, each held at quiesce to the same judge
# (clean Arena.Audit, exact counter identities, no drain healed
# silently). Override the knobs:
#
#	make chaos CHAOS_SEED=7 CHAOS_SEQ_OPS=50000 CHAOS_WORKERS=16 CHAOS_CONC_OPS=5000
CHAOS_SEED     ?= 1
CHAOS_SEQ_OPS  ?= 20000
CHAOS_WORKERS  ?= 8
CHAOS_CONC_OPS ?= 3000
chaos:
	$(GO) run -race rcgo/cmd/rcchaos -seed $(CHAOS_SEED) -seq-ops $(CHAOS_SEQ_OPS) \
		-workers $(CHAOS_WORKERS) -conc-ops $(CHAOS_CONC_OPS)

# Short-budget chaos pass for CI: same gates, reduced scale.
chaos-smoke:
	$(GO) run -race rcgo/cmd/rcchaos -seed 1 -seq-ops 4000 -workers 4 -conc-ops 300 -q

# One testing.B benchmark per paper table/figure, plus ablations and
# primitive microbenchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run rcgo/cmd/rcbench -reps 3 -bars

examples:
	$(GO) run rcgo/examples/quickstart
	$(GO) run rcgo/examples/cycles
	$(GO) run rcgo/examples/webserver
	$(GO) run rcgo/examples/arenacompiler
	$(GO) run rcgo/examples/interp
	$(GO) run rcgo/examples/pipeline

fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/rcc/

# Fuzz the delete state machine against the sequential reference model.
# Minimization is bounded because nearly every early input grows
# coverage in this stateful target; the default 60s-per-input budget
# makes the fuzzer appear hung.
fuzz-delete:
	$(GO) test -fuzz FuzzDeleteStateMachine -fuzztime 30s -fuzzminimizetime 20x -run '^$$' .

clean:
	$(GO) clean ./...
