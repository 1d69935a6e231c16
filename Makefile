# rcgo — reproduction of Gay & Aiken, "Language Support for Regions" (PLDI 2001)

GO ?= go

.PHONY: all build test test-short test-shuffle vet staticcheck race check benchlint-files bench-oracles advise-smoke own-smoke contend-smoke slab-smoke docs-check chaos chaos-smoke bench bench-smoke experiments examples fuzz fuzz-delete clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

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

# Race-detector pass: the concurrent Go-native runtime stress tests
# (region_concurrent_test.go) are only meaningful under -race. -short
# keeps the VM differential suites at a size where the ~10-20x race
# overhead stays reasonable.
race:
	$(GO) test -race -short ./...

# The default verification gate: build cleanliness, static analysis,
# the full test suite, the race pass over the concurrent API, the
# checked-in benchmark reports revalidated against the current schema,
# the benchmark workloads' oracles, and the documentation anchored to
# the tree it describes.
check: vet staticcheck test test-shuffle race benchlint-files bench-oracles advise-smoke own-smoke contend-smoke slab-smoke docs-check

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

# Ownership fast-path end-to-end gate: a 1-round -own-ab report piped
# through benchlint (exercises Acquire/Release, the owned alloc and
# store paths, and the "ownership" schema section), then the pipeline
# hand-off example. One round proves the machinery, not the speedup —
# BENCH_pr8_ownership.json records the real best-of-10 run.
own-smoke:
	$(GO) run rcgo/cmd/rcbench -json -reps 1 -scale 2 -workloads moss -own-ab 1 -own-cpu 2 | $(GO) run rcgo/cmd/benchlint
	$(GO) run rcgo/examples/pipeline

# Blocking-acquisition end-to-end gate: a 1-round -contend-ab report
# (exercises AcquireContext, the FIFO hand-off and the "contention"
# schema section) piped through benchlint, then the contention chaos
# phase alone under the race detector with the own.handoff failpoint
# armed. One round proves the machinery — BENCH_pr9_contention.json
# records the real best-of-10 run.
contend-smoke:
	$(GO) run rcgo/cmd/rcbench -json -reps 1 -scale 2 -workloads moss -contend-ab 1 -contend-cpu 2 | $(GO) run rcgo/cmd/benchlint
	$(GO) run -race rcgo/cmd/rcchaos -phase contention -seed 1 -workers 4 -conc-ops 300 -q

# Off-heap slab end-to-end gate: a 1-round -slab-ab report (exercises
# WithOffHeapSlabs, the pointer-free admission gate, reclaim-time page
# return, the GC-pressure cell and the "slab" schema section) piped
# through benchlint, then the slab chaos phase alone under the race
# detector with the slab.map failpoint armed — the phase fails on any
# leaked page. One round proves the machinery — BENCH_pr10_slab.json
# records the real best-of run.
slab-smoke:
	$(GO) run rcgo/cmd/rcbench -json -reps 1 -scale 2 -workloads moss -slab-ab 1 -slab-cpu 2 | $(GO) run rcgo/cmd/benchlint
	$(GO) run -race rcgo/cmd/rcchaos -phase slab -seed 1 -workers 4 -conc-ops 300 -q

# Documentation anchor gate: every path named in ARCHITECTURE.md's
# tables must exist on disk, and every "DESIGN.md §N" cross-reference
# in *.go and *.md must resolve to a real numbered section.
docs-check:
	$(GO) run rcgo/cmd/docscheck

# Chaos harness under the race detector: a seeded sequential phase
# checked op-by-op against the reference model of the delete state
# machine, then concurrent scheduler-perturbation and error-injection
# phases with failpoints armed, a zombie watchdog patrolling, and
# Arena.Audit required clean at every quiesce point. Override the knobs:
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

# Tiny end-to-end sanity pass over the machine-readable benchmark path:
# a reduced-scale rcbench -json run — including 1-rep allocation
# fast-path and arena-fabric A/Bs so the parallel and fabric sections
# of the schema are exercised — piped through the benchlint validator,
# then a 100-iteration spin of the parallel Alloc benchmark pairs.
# Catches schema drift, broken workloads and a broken fast path in
# seconds.
bench-smoke:
	$(GO) run rcgo/cmd/rcbench -json -reps 1 -scale 2 -workloads moss,tile -alloc-ab 1 -ab-cpu 2 -fabric-ab 1 -fabric-cpu 2 -fabric-live 32 | $(GO) run rcgo/cmd/benchlint
	$(GO) test -run '^$$' -bench 'BenchmarkParallelAlloc' -benchtime 100x -cpu 2 .

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
