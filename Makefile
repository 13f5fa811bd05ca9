GO ?= go
# The reproduction CLI: every table, figure and trace command below.
LP = $(GO) run ./cmd/lp

.PHONY: all check build test race vet fmt cover fuzz-smoke trace-smoke lp-smoke bench bench-test bench-smoke chaos leakd-smoke leakd-demo leakd-soak

all: build test vet

# The one tier-1 superset: everything `go build ./... && go test ./...`
# covers, plus vet, the gofmt gate and the benchmark module's own tests (a
# separate module, so the root `go test ./...` does not reach them).
check: build test vet fmt bench-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent collector, allocator, runtime
# facade, fault-injection, observability, JIT-simulation, daemon, trace,
# and replay-harness packages. -short skips only TestFaultMatrix: under the
# race detector internal/harness already takes 152 s (4.1 s plain) on a
# 2-vCPU box, and the matrix's ~13 s of plain single-core work would add
# minutes to a gate it was never part of. The tracer's workers park when
# idle, and a lost wake-up in a park protocol shows at one P, where nothing
# spins, and hides at two: internal/gc runs again at GOMAXPROCS 1 and 4
# (~13 s each). A thread inside Thread.Region parks through the safepoint
# protocol's own park path, for the same reason internal/vm runs again at
# GOMAXPROCS 1. internal/vm's TestClearDuringConcurrentSweep raises
# GOMAXPROCS to 4 itself: mutators clear stale counters on their own Ps
# while concurrent sweeps run.
race:
	$(GO) test -race -short ./internal/gc/... ./internal/heap/... ./internal/vm/... \
		./internal/edgetable/... ./internal/offload/... ./internal/faultinject/... \
		./internal/obs/... ./internal/jitsim/... ./internal/server/... \
		./internal/trace/... ./internal/harness/...
	GOMAXPROCS=1 $(GO) test -race -short -count=1 ./internal/gc/...
	GOMAXPROCS=4 $(GO) test -race -short -count=1 ./internal/gc/...
	GOMAXPROCS=1 $(GO) test -race -short -count=1 ./internal/vm/...

vet:
	$(GO) vet ./...

# Every Go file is gofmt-clean; on failure, the files gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# Per-package statement coverage.
cover:
	$(GO) test -cover ./...

# Short native-fuzzing pass over the fuzz targets: the stale clock against
# the eager aging rule, the edge table's shadow-model fuzz, the
# tagged-reference round trip, the SATB deletion-barrier buffer against its
# shadow model, barrier-expanded jitsim code against the plain compile, and
# the allocation-trace codec round trip (hostile-parse + script round
# trip). The checked-in corpora under testdata/fuzz run in every plain `go
# test`; this adds ten seconds of fresh input generation per target.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzStaleClock$$' -fuzztime=10s ./internal/heap
	$(GO) test -run='^$$' -fuzz='^FuzzEdgeTable$$' -fuzztime=10s ./internal/edgetable
	$(GO) test -run='^$$' -fuzz='^FuzzPoisonRoundTrip$$' -fuzztime=10s ./internal/vm
	$(GO) test -run='^$$' -fuzz='^FuzzSATBBuffer$$' -fuzztime=10s ./internal/vm
	$(GO) test -run='^$$' -fuzz='^FuzzCompile$$' -fuzztime=10s ./internal/jitsim
	$(GO) test -run='^$$' -fuzz='^FuzzTraceRoundTrip$$' -fuzztime=10s ./internal/trace

# Trace record/replay smoke gate: record a listleak run, structurally
# verify and summarize the trace, replay it ×1 asserting cycle-exact
# equivalence with the recording, then replay it ×4 (thread multiplication)
# and under a different policy — all audit-clean, exit 1 on any failure.
trace-smoke:
	mkdir -p results
	$(LP) run -program listleak -policy default -max-iters 900 -record results/listleak.trace
	$(LP) trace verify -i results/listleak.trace
	$(LP) trace stat -i results/listleak.trace
	$(LP) trace replay -i results/listleak.trace -verify
	$(LP) trace replay -i results/listleak.trace -x 4
	$(LP) trace replay -i results/listleak.trace -policy most-stale

# Every lp subcommand once at toy size, so a broken table or figure
# regenerator fails CI instead of being found when EXPERIMENTS.md is next
# rebuilt (trace-smoke covers 'lp run -record' and 'lp trace'), then every
# examples/ program once, so one that compiles but no longer runs fails
# too (~20 s, most of it dbstatements). The Perfetto export is checked on a
# run that traps (cacheleak, iteration 679): its trace must name the main
# thread's track and hold a poison.trap on it. The artifacts go to a
# temporary directory, removed on exit.
lp-smoke:
	$(LP) list
	$(LP) run -program eclipsediff -max-iters 300 -report
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
		$(LP) run -program cacheleak -policy indiv-refs -obs-dir "$$d" >/dev/null && \
		f="$$d/trace_cacheleak_indiv-refs.json" && \
		tid=$$(grep '"name":"thread_name"' "$$f" | grep '"args":{"name":"main"}' | sed 's/.*"tid":\([0-9]*\).*/\1/') && \
		test -n "$$tid" && grep '"name":"poison.trap"' "$$f" | grep -q "\"tid\":$$tid," || \
		{ echo "lp-smoke: want a cacheleak trace with a poison.trap on a track named main"; exit 1; }
	for n in 1 2 3; do $(LP) table $$n -max-iters 300 || exit 1; done
	for n in 1 9; do $(LP) fig $$n -max-iters 300 >/dev/null || exit 1; done
	for n in 6 7; do $(LP) fig $$n -iters 20 -trials 1 || exit 1; done
	$(LP) compile -trials 1
	for d in examples/*/; do $(GO) run ./$$d >/dev/null || exit 1; done

# The repo's one benchmark (BENCHMARK.json): four fixed-work workloads,
# end-to-end metrics plus per-layer numbers. See benchmark/README.md.
bench:
	bash benchmark/run.sh

# The benchmark's own tests (benchmark/ is a separate module, so `make
# test` does not reach it).
bench-test:
	$(GO) test -C benchmark ./...

# One iteration of each go-test phase, recycled-birth, sweep, stale-closure, mutator,
# allocation-path, live-set-hash and thread-lifecycle benchmark — a fast compile-and-run
# sanity check. It starts by asking the compiler whether the helpers paid
# once per mutator op or traced edge still inline: the three every mutator
# op is built from (beginOp sits one node under the budget), the
# chunk-cached lookup behind every Load and every traced edge (GetCached,
# three under), the object-table entry's slot accessors (Ref, SetRef and
# NumRefs: an unsafe pointer and one bounds-checked index), the mark
# bitmap's test-and-set (ChunkCache.Mark) and the tracer's claim built on
# it, the live-tally record of a scanned object (take), and the
# stale-clock read (Clock.Stale) behind every counter a plan asks for; a
# CALL each would be paid per Load or per edge. Then it disassembles (*Thread).Load and (*Thread).Store and fails
# on a CALL to anything but their named out-of-line paths — the barrier
# cold path, the resolve slow path and the load/store slow paths (which
# also record), the traps, beginOpSlow and the SATB log — or the runtime's
# own: the stack-growth prologue, bounds-check panics, and the slice growth
# and GC write barrier of a locals append or a chunk-cache refresh. A
# resident object's Load and Store make no call. Last it checks the birth
# path: the class-shape lookup ((*Registry).Shape) must inline into
# (*Heap).allocate, whose disassembly must call refill and refillRun out of
# line and hold no LOCK-prefixed instruction and no XCHG — a birth from a
# context's run counts itself in plain words. Here and not in `make
# check`: another toolchain's inliner may count differently, and that must
# not turn tier-1 red.
bench-smoke:
	@out=$$($(GO) build -gcflags=-m ./internal/vm 2>&1); for f in beginOp endOp root; do \
		echo "$$out" | grep -q "can inline (\*Thread)\.$$f$$" || \
			{ echo "internal/vm: (*Thread).$$f does not inline any more"; exit 1; }; done
	@out=$$($(GO) build -gcflags=-m ./internal/heap 2>&1); for f in "Heap).GetCached" "ChunkCache).Mark" "Object).Ref" "Object).SetRef" "Object).NumRefs" "Clock).Stale"; do \
		echo "$$out" | grep -qF "can inline (*$$f" || \
			{ echo "internal/heap: (*$$f does not inline any more"; exit 1; }; done; \
		echo "$$out" | grep -qE '^internal/heap/heap\.go:[0-9:]+ inlining call to \(\*Registry\)\.Shape$$' || \
			{ echo "internal/heap: (*Registry).Shape does not inline into the allocation path any more"; exit 1; }
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && $(GO) test -c -o "$$d/heap.test" ./internal/heap && \
		dis=$$($(GO) tool objdump -s 'heap\.\(\*Heap\)\.allocate$$' "$$d/heap.test") && \
		for f in refill refillRun; do echo "$$dis" | grep -q "CALL leakpruning/internal/heap.(\*Heap).$$f(SB)" || \
			{ echo "internal/heap: (*Heap).allocate does not call (*Heap).$$f out of line"; exit 1; }; done && \
		bad=$$(echo "$$dis" | grep -E '\s(LOCK|XCHG[BWLQ]?)\s|CALL leakpruning/internal/heap\.\(\*Registry\)\.Shape\(SB\)') ; \
		test -z "$$bad" || { echo "internal/heap: (*Heap).allocate takes a locked instruction or calls the class lookup:"; echo "$$bad"; exit 1; }
	@out=$$($(GO) build -gcflags=-m ./internal/gc 2>&1); for f in claim take; do \
		echo "$$out" | grep -q "can inline (\*traceWorker)\.$$f$$" || \
			{ echo "internal/gc: (*traceWorker).$$f does not inline any more"; exit 1; }; done
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && $(GO) test -c -o "$$d/vm.test" ./internal/vm && \
		dis=$$($(GO) tool objdump -s 'vm\.\(\*Thread\)\.(Load|Store)$$' "$$d/vm.test") && \
		for f in Load Store; do echo "$$dis" | grep -q "^TEXT leakpruning/internal/vm.(\*Thread).$$f(SB)" || \
			{ echo "internal/vm: no (*Thread).$$f in the test binary"; exit 1; }; done && \
		bad=$$(echo "$$dis" | grep -E '\sCALL\s' | grep -vE 'CALL (leakpruning/internal/vm\.\(\*Thread\)\.(barrierColdPath|resolveSlow|loadSlow|storeSlow|trapBadSlot|trapDeadRef|beginOpSlow|satbLog)|runtime\.(morestack_noctxt\.abi0|panicIndexU?|growslice|gcWriteBarrier[0-9])\(SB\))') ; \
		test -z "$$bad" || { echo "internal/vm: (*Thread).Load/Store call off their named out-of-line paths:"; echo "$$bad"; exit 1; }
	$(GO) test -run='^$$' -bench='Benchmark(Mark|Alloc)Parallel' -benchtime=1x .
	$(GO) test -run='^$$' -bench='^BenchmarkRecycledAlloc$$' -benchtime=1x ./internal/heap
	$(GO) test -run='^$$' -bench='^Benchmark(Sweep|StaleClosure)$$' -benchtime=1x ./internal/gc
	$(GO) test -run='^$$' -bench='^Benchmark(RecordUse|PlanWalk)$$' -benchtime=1x ./internal/edgetable
	$(GO) test -run='^$$' -bench='Benchmark(MutatorOps|NewParallel|RequestShapedAlloc|LiveSetHash|RunThreadObs)' -benchtime=1x -benchmem ./internal/vm

# Full fault-injection campaign: 20 seeds x fault matrix x micro-leak
# workloads, invariant audit after every collection. Every `go test ./...`
# runs the same matrix at 3 seeds. The package comes before -seeds: go test
# hands everything after the first flag it does not know to the test binary.
chaos:
	$(GO) test -count=1 -run TestFaultMatrix ./internal/harness -seeds 20

# Daemon smoke gate: boot leakd with the 4-tenant demo mix (one leaky
# tenant with pruning off), drive it until the budget ladder evicts the
# leak, self-scrape /metrics and /healthz over HTTP, assert the eviction
# counter, and exit 0 on a clean drain.
leakd-smoke:
	$(GO) run ./cmd/leakd -smoke -addr 127.0.0.1:0

# Interactive demo: 4 tenants self-driven for 20s while the HTTP API is
# live — `curl localhost:8080/metrics` or /tenants from another shell.
leakd-demo:
	$(GO) run ./cmd/leakd -demo -addr 127.0.0.1:8080 -duration 20s -v

# Budget-holding soak: >= 60s of 4-tenant traffic with one leaky tenant
# cycling through eviction and re-admission; fails if resident bytes ever
# exceed the budget, the ladder never reaches eviction, or the /pressure
# per-ladder-level latency SLOs are missing a baseline p99 or any
# degraded-level attribution.
leakd-soak:
	$(GO) run ./cmd/leakd -soak -addr 127.0.0.1:0 -duration 60s
