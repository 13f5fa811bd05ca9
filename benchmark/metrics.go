package main

// metricDef is one row of the benchmark's metric tables. The tables are the
// single source for BENCHMARK.json (contract_test.go compares them), for the
// printed report and for README.md's tables.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves names, for a per-layer metric, the end-to-end metric and workload
	// it is expected to move (choosing-metrics §3).
	Moves string
	What  string
}

// Workload names are fixed: later performance issues cite them.
const (
	wMutatorSteady  = "mutator_steady"
	wLeakPrune      = "leak_prune"
	wServePipelined = "serve_pipelined"
	wServeTenants   = "serve_tenants"
)

// endToEnd lists what a user of the system sees, measured with tracing off.
// Every metric is defined on every workload because the contract prints all
// of them on each run: "small" is the 1-iteration operation (one Iterate call
// in batch, one 1-iteration HTTP request in serve) and "large" the
// 200-iteration one (200 consecutive Iterate calls, one 200-iteration
// request).
//
// Every timed metric carries the widest bound the contract allows. The host
// this was sized on drifts by 10-25% for minutes at a time (memory-bound code
// slows while a pure ALU loop does not), so a tighter bound would reject
// runs of unchanged code; README.md has the measurements.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		What: "wall seconds before the first measured op: vm.New + Program.Setup, or server boot + admits + warm-up requests"},
	{Name: "iters_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		What: "workload iterations completed by successful ops / measured wall"},
	{Name: "cpu_ms_per_kiter", Unit: "ms", Better: "lower", Bound: 0.25,
		What: "getrusage user+sys over the measured window per 1000 iterations (load generator included on serve)"},
	{Name: "small_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		What: "p99 wall time of a 1-iteration op as its caller sees it, including any GC the op triggers or waits for (the issue's iter_p99_ms on batch)"},
	{Name: "large_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		What: "median wall time of a 200-iteration op"},
	{Name: "large_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		What: "p95 of the same: the highest percentile with at least 10 samples beyond it"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20,
		What: "ru_maxrss of the workload's own process"},
}

// perLayer lists the traced pass's numbers, one block per module.
var perLayer = []metricDef{
	// client: what the caller sees, ungated
	{Name: "client.small_p50_ms", Unit: "ms", Better: "lower", Moves: "demoted end-to-end metric: the typical 1-iteration op",
		What: "median wall time of a 1-iteration op; two-moded on serve (a small request either shares the cores with a large one or does not), so it fails A/A at any allowed bound"},

	// workload
	{Name: "workload.iter_self_us_p50", Unit: "us", Better: "lower", Moves: "iters_per_s on batch",
		What: "median workload.iterate span minus the collections inside it (batch)"},
	{Name: "workload.setup_ms", Unit: "ms", Better: "lower", Moves: "setup_s",
		What: "the setup span"},

	// vm
	{Name: "vm.loads", Unit: "count", Better: "lower", Moves: "simulated count; must not change under a host-time optimisation",
		What: "reference loads in the measured window (batch)"},
	{Name: "vm.allocations", Unit: "count", Better: "lower", Moves: "simulated count",
		What: "objects allocated in the window (batch)"},
	{Name: "vm.barrier_cold_hits", Unit: "count", Better: "lower", Moves: "simulated count; iters_per_s on leak_prune",
		What: "read-barrier cold-path executions in the window"},
	{Name: "vm.barrier_hit_ratio", Unit: "ratio", Better: "lower", Moves: "explains load_cold_ns weight: 0 on mutator_steady",
		What: "cold hits / loads (batch)"},
	{Name: "vm.poison_traps", Unit: "count", Better: "lower", Moves: "must stay 0 on every workload",
		What: "InternalErrors raised for pruned-reference accesses"},
	{Name: "vm.mutator_ns_per_op", Unit: "ns", Better: "lower", Moves: "iters_per_s, cpu_ms_per_kiter on mutator_steady",
		What: "iterate self time / (loads + allocations) (batch)"},
	{Name: "vm.pause_p50_us", Unit: "us", Better: "lower", Moves: "small_p99_ms",
		What: "median stop-the-world pause (batch; leakd exposes pauses only as a decade histogram)"},
	{Name: "vm.pause_p99_us", Unit: "us", Better: "lower", Moves: "small_p99_ms on batch and serve_pipelined",
		What: "p99 pause (batch)"},
	{Name: "vm.pause_max_us", Unit: "us", Better: "lower", Moves: "small_p99_ms",
		What: "longest pause"},
	{Name: "vm.pause_share", Unit: "ratio", Better: "lower", Moves: "iters_per_s",
		What: "sum of pauses / measured wall (serve_tenants: summed over 4 VMs)"},
	{Name: "vm.pause_overhead_ms", Unit: "ms", Better: "lower", Moves: "iters_per_s on leak_prune",
		What: "pause time outside the collector's own phases: plan, TLAB flush, controller transition (batch)"},
	{Name: "vm.safepoint_stop_us_mean", Unit: "us", Better: "lower", Moves: "small_p99_ms on serve_pipelined",
		What: "mean time-to-stop from lp_safepoint_stop_ns"},
	{Name: "vm.load_ns", Unit: "ns", Better: "lower", Moves: "iters_per_s, cpu_ms_per_kiter on mutator_steady",
		What: "probe: Thread.Load fast path, barriers on, 1 thread"},
	{Name: "vm.load_cold_ns", Unit: "ns", Better: "lower", Moves: "iters_per_s on leak_prune only",
		What: "probe: Thread.Load through the barrier cold path (stale-tagged slot)"},
	{Name: "vm.store_ns", Unit: "ns", Better: "lower", Moves: "iters_per_s on batch",
		What: "probe: Thread.Store"},
	{Name: "vm.new_ns", Unit: "ns", Better: "lower", Moves: "iters_per_s, large_p50_ms on serve",
		What: "probe: Thread.New of a 64-byte scalar object"},
	{Name: "vm.collect_empty_us", Unit: "us", Better: "lower", Moves: "small_p99_ms",
		What: "probe: VM.Collect on a near-empty heap, the fixed cost of a cycle"},

	// heap
	{Name: "heap.alloc_ns", Unit: "ns", Better: "lower", Moves: "large_p50_ms, iters_per_s on serve",
		What: "probe: Heap.AllocateCtx through a TLAB context"},
	{Name: "heap.alloc_nocontext_ns", Unit: "ns", Better: "lower", Moves: "iters_per_s on serve",
		What: "probe: Heap.Allocate without a context"},
	{Name: "heap.free_batch_ns_per_obj", Unit: "ns", Better: "lower", Moves: "iters_per_s on leak_prune (sweep side)",
		What: "probe: Heap.FreeBatch per object"},
	{Name: "heap.bytes_allocated", Unit: "bytes", Better: "lower", Moves: "simulated count",
		What: "simulated bytes allocated in the window (batch)"},
	{Name: "heap.peak_fullness", Unit: "ratio", Better: "lower", Moves: "simulated; explains cycle frequency",
		What: "highest post-collection BytesUsed / Limit (batch)"},
	{Name: "heap.bytes_live_end", Unit: "bytes", Better: "lower", Moves: "simulated; peak_rss_mb",
		What: "simulated bytes in use when the window closes"},

	// gc
	{Name: "gc.cycles", Unit: "count", Better: "lower", Moves: "simulated count",
		What: "full-heap collections in the window"},
	{Name: "gc.cycles_select", Unit: "count", Better: "lower", Moves: "simulated count; 0 on mutator_steady",
		What: "SELECT cycles"},
	{Name: "gc.cycles_prune", Unit: "count", Better: "lower", Moves: "simulated count; 0 on mutator_steady",
		What: "PRUNE cycles"},
	{Name: "gc.cycles_degraded", Unit: "count", Better: "lower", Moves: "must stay 0",
		What: "cycles finished by the serial fallback tracer"},
	{Name: "gc.time_share", Unit: "ratio", Better: "lower", Moves: "iters_per_s, small_p99_ms on leak_prune (0.39); 0.24 of mutator_steady",
		What: "collector phase time / measured wall"},
	{Name: "gc.mark_ms", Unit: "ms", Better: "lower", Moves: "iters_per_s on leak_prune",
		What: "total in-use closure time"},
	{Name: "gc.stale_ms", Unit: "ms", Better: "lower", Moves: "iters_per_s on leak_prune",
		What: "total stale closure time (SELECT cycles)"},
	{Name: "gc.sweep_ms", Unit: "ms", Better: "lower", Moves: "iters_per_s on leak_prune",
		What: "total sweep time"},
	{Name: "gc.remark_ms", Unit: "ms", Better: "lower", Moves: "small_p99_ms on serve_pipelined only",
		What: "total final-remark time (concurrent cycles)"},
	{Name: "gc.mark_ns_per_live_obj", Unit: "ns", Better: "lower", Moves: "iters_per_s on leak_prune",
		What: "mark time / objects found live (batch)"},
	{Name: "gc.sweep_ns_per_freed_obj", Unit: "ns", Better: "lower", Moves: "iters_per_s on leak_prune",
		What: "sweep time / objects freed (batch)"},
	{Name: "gc.probe_mark_ns_per_obj", Unit: "ns", Better: "lower", Moves: "gc.mark_ms",
		What: "probe: re-trace 131072 live objects, default workers"},
	{Name: "gc.probe_sweep_ns_per_obj", Unit: "ns", Better: "lower", Moves: "gc.sweep_ms",
		What: "probe: sweep 131072 dead objects, default workers"},

	// core, edgetable
	{Name: "core.prunes", Unit: "count", Better: "lower", Moves: "simulated count; 0 on mutator_steady",
		What: "prune events"},
	{Name: "core.pruned_refs", Unit: "count", Better: "lower", Moves: "simulated count",
		What: "references poisoned"},
	{Name: "core.bytes_pruned", Unit: "bytes", Better: "higher", Moves: "simulated count",
		What: "bytes reclaimed by PRUNE cycles"},
	{Name: "edgetable.edge_types", Unit: "count", Better: "lower", Moves: "simulated count",
		What: "edge types recorded (batch)"},
	{Name: "edgetable.overflows", Unit: "count", Better: "lower", Moves: "must stay 0",
		What: "edge-type insertions dropped by a full table (batch)"},
	{Name: "edgetable.record_use_ns", Unit: "ns", Better: "lower", Moves: "vm.load_cold_ns, iters_per_s on leak_prune",
		What: "probe: Table.RecordUse on an existing edge type"},
	{Name: "edgetable.freeze_us", Unit: "us", Better: "lower", Moves: "vm.pause_overhead_ms on leak_prune",
		What: "probe: Table.Freeze of 512 edge types"},
	{Name: "core.plan_finish_us", Unit: "us", Better: "lower", Moves: "vm.pause_overhead_ms on leak_prune",
		What: "probe: Controller.PlanCycle + FinishCycle in SELECT over 512 edge types"},

	// server
	{Name: "server.requests", Unit: "count", Better: "higher", Moves: "fixed by the schedule",
		What: "recorded requests"},
	{Name: "server.failed", Unit: "count", Better: "lower", Moves: "the run's failed count; must stay 0",
		What: "recorded requests that failed for any reason"},
	{Name: "server.shed_429", Unit: "count", Better: "lower", Moves: "must stay 0: the closed loop never fills the queue",
		What: "requests shed with 429"},
	{Name: "server.session_restarts", Unit: "count", Better: "lower", Moves: "must stay 0",
		What: "tenant sessions restarted after exhaustion"},
	{Name: "server.tenant_faults", Unit: "count", Better: "lower", Moves: "must stay 0",
		What: "faults recorded by Tenant.Status"},
	{Name: "server.pressure_level_max", Unit: "count", Better: "lower", Moves: "must stay 0",
		What: "highest budget-ladder level seen"},
	{Name: "server.req_per_s", Unit: "1/s", Better: "higher", Moves: "iters_per_s on serve (same window, fixed mix)",
		What: "recorded requests / measured wall"},
	{Name: "server.http_overhead_us_p50", Unit: "us", Better: "lower", Moves: "client.small_p50_ms on serve",
		What: "median client.request span minus its server.handle span"},
	{Name: "server.handle_ms_mean", Unit: "ms", Better: "lower", Moves: "client.small_p50_ms, large_p50_ms on serve",
		What: "mean server.handle span"},
	{Name: "server.queue_wait_us_mean", Unit: "us", Better: "lower", Moves: "small_p99_ms on serve_pipelined",
		What: "mean lp_request_queue_wait_ns"},
	{Name: "server.admit_ms", Unit: "ms", Better: "lower", Moves: "setup_s on serve",
		What: "mean Server.Admit"},
	{Name: "server.evict_ms", Unit: "ms", Better: "lower", Moves: "nothing end-to-end: teardown",
		What: "Server.EvictTenant of one tenant after the window"},
	{Name: "server.run_request_direct_us", Unit: "us", Better: "lower", Moves: "client.small_p50_ms on serve",
		What: "probe: Server.RunRequest(name, 1) in-process on an idle serial tenant, median of 2000"},
	{Name: "server.http_floor_us", Unit: "us", Better: "lower", Moves: "client.small_p50_ms on serve",
		What: "probe: GET /healthz round trip, median of 2000"},

	// obs
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_kiter on serve when scraped",
		What: "Registry.WritePrometheus of the run's registry"},
	{Name: "obs.series", Unit: "count", Better: "lower", Moves: "obs.scrape_ms",
		What: "registered series"},
	{Name: "obs.observe_ns", Unit: "ns", Better: "lower", Moves: "cpu_ms_per_kiter on serve (Obs is always on there)",
		What: "probe: Histogram.Observe"},

	// host
	{Name: "host.go_alloc_mb", Unit: "MB", Better: "lower", Moves: "peak_rss_mb, cpu_ms_per_kiter",
		What: "Go heap allocated in the window"},
	{Name: "host.go_gc_cycles", Unit: "count", Better: "lower", Moves: "cpu_ms_per_kiter",
		What: "Go runtime collections in the window"},
	{Name: "host.go_gc_pause_ms", Unit: "ms", Better: "lower", Moves: "small_p99_ms",
		What: "Go runtime stop-the-world total in the window"},
	{Name: "host.canary_ms_p50", Unit: "ms", Better: "lower", Moves: "explains a noisy run",
		What: "median of ten fixed spin loops around the workload"},
	{Name: "host.canary_spread", Unit: "ratio", Better: "lower", Moves: "explains a noisy run; > 0.15 marks it noisy",
		What: "(max - min) / median of the same"},
	{Name: "host.trace_overhead_share", Unit: "ratio", Better: "lower", Moves: "validity of the traced pass",
		What: "traced repeat wall / untraced reference repeat wall - 1, same process"},
}

// Value is one reported number in the contract's result line.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
