package server

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/heap"
	"leakpruning/internal/obs"
	"leakpruning/internal/vm"
	"leakpruning/internal/workload"
)

// TenantState is one tenant's lifecycle position: admit → serve →
// (pressure) → evict/quarantine → drain. See DESIGN.md's state diagram.
type TenantState int32

const (
	// TenantServing accepts requests.
	TenantServing TenantState = iota
	// TenantQuarantined stopped accepting after K consecutive faults; the
	// VM is kept (for diagnosis and a possible operator-driven restart via
	// the config endpoint) but no request reaches it.
	TenantQuarantined
	// TenantEvicting is mid-eviction: new requests are rejected while
	// in-flight ones drain against the deadline.
	TenantEvicting
	// TenantEvicted is terminal; the slot is released from the budget.
	TenantEvicted
)

func (s TenantState) String() string {
	switch s {
	case TenantServing:
		return "serving"
	case TenantQuarantined:
		return "quarantined"
	case TenantEvicting:
		return "evicting"
	case TenantEvicted:
		return "evicted"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// TenantConfig describes one tenant VM: its workload, pruning policy, and
// heap limit. It is the admission request body and the unit of rolling
// config updates.
type TenantConfig struct {
	// Name identifies the tenant in every route, metric label, and log.
	Name string `json:"name"`
	// Workload names the session program driven by this tenant's requests
	// (see workload.Names).
	Workload string `json:"workload"`
	// Policy is the pruning policy: "off" (no pruning — the tenant dies at
	// its heap limit and is session-restarted), "default", "most-stale",
	// "indiv-refs", "decay", or "melt" (the disk-offload baseline).
	Policy string `json:"policy"`
	// HeapLimit is the tenant VM's simulated heap in bytes. Admission
	// enforces HeapLimit <= budget and the overcommit bound on the sum.
	HeapLimit uint64 `json:"heap_limit"`
	// MarkMode is "" or "stw" (default), or "concurrent".
	MarkMode string `json:"mark_mode,omitempty"`
	// NearlyFullFraction seeds the tenant's OBSERVE → SELECT threshold
	// (0 = the paper's 0.9). The budget ladder may tighten it at runtime.
	NearlyFullFraction float64 `json:"nearly_full_fraction,omitempty"`
	// AuditEveryGC is the one "verify this tenant" switch: it arms the
	// heap invariant audit inside every collection and fingerprints the
	// live set after each one (CycleHashes, live_hash_cycles). Both walk
	// the whole heap inside the pause, so a production tenant leaves it
	// off; the isolation tests set it on the tenants whose hash sequences
	// they compare.
	AuditEveryGC bool `json:"audit_every_gc,omitempty"`
	// Pipeline only picks the default for Workers: "" or "serial" means one
	// worker (one request at a time, which keeps per-tenant behavior
	// deterministic), "concurrent" means four (small requests stop waiting
	// head-of-line behind large ones). "serial" with Workers > 1 is rejected
	// as a contradiction.
	Pipeline string `json:"pipeline,omitempty"`
	// Workers is the request pool's size K (default 1; 4 under Pipeline
	// "concurrent"). Each worker drives its own independent session of the
	// workload inside the tenant VM — the multi-thread mutator shape the
	// safepoint protocol makes sound.
	Workers int `json:"workers,omitempty"`
	// QueueDepth bounds the request queue (0 = 4*Workers, at least 16). A
	// full queue sheds the request with a typed *QueueFullError (HTTP 429).
	QueueDepth int `json:"queue_depth,omitempty"`

	// VMInjector arms fault injection inside this tenant's VM (nil = off).
	VMInjector *faultinject.Injector `json:"-"`
	// DaemonInjector arms the daemon-level points (TenantRequestPanic,
	// EvictDrainTimeout) for this tenant only (nil = off). The isolation
	// tests use it to storm one tenant while its siblings run clean.
	DaemonInjector *faultinject.Injector `json:"-"`
}

// vmOptions translates the tenant config into vm.Options. The result is
// validated with vm.ValidateOptions before any VM is constructed, so a bad
// rolling update is rejected with a typed error instead of panicking the
// daemon mid-swap. Tenant VMs trace with one worker: tenants are many,
// cores are few, and a tenant's heap is far below the size where a closure
// spills to a second one.
func (tc TenantConfig) vmOptions(o *obs.Obs) (vm.Options, error) {
	// Barriers stay on under every policy, so a tenant with none still has
	// staleness metrics; it relies on plain collection (and session
	// restarts at OOM).
	opts := vm.Options{
		HeapLimit:          tc.HeapLimit,
		EnableBarriers:     true,
		GCWorkers:          1,
		NearlyFullFraction: tc.NearlyFullFraction,
		FaultInjector:      tc.VMInjector,
		AuditEveryGC:       tc.AuditEveryGC,
		HashLiveSet:        tc.AuditEveryGC,
		Obs:                o,
	}
	if err := opts.SetModes(tc.Policy, tc.MarkMode); err != nil {
		return vm.Options{}, err
	}
	switch tc.Pipeline {
	case "", PipelineConcurrent:
	case PipelineSerial:
		if tc.Workers > 1 {
			return vm.Options{}, fmt.Errorf("server: pipeline %q cannot have %d workers", PipelineSerial, tc.Workers)
		}
	default:
		return vm.Options{}, fmt.Errorf("server: unknown pipeline %q", tc.Pipeline)
	}
	if tc.Workers < 0 || tc.QueueDepth < 0 {
		return vm.Options{}, fmt.Errorf("server: Workers and QueueDepth must be non-negative")
	}
	if err := vm.ValidateOptions(opts); err != nil {
		return vm.Options{}, err
	}
	return opts, nil
}

// Pipeline modes for TenantConfig.Pipeline.
const (
	PipelineSerial     = "serial"
	PipelineConcurrent = "concurrent"
)

// pipelineSettings resolves the Pipeline/Workers/QueueDepth triple into
// the pool geometry, defaults applied.
func (tc TenantConfig) pipelineSettings() (workers, depth int) {
	workers = tc.Workers
	if workers == 0 {
		workers = 1
		if tc.Pipeline == PipelineConcurrent {
			workers = 4
		}
	}
	depth = tc.QueueDepth
	if depth == 0 {
		depth = max(4*workers, 16)
	}
	return workers, depth
}

// Tenant is one hosted session: a VM, the worker pool that runs its
// requests, and the fault-isolation bookkeeping around them. Distinct
// tenants serve fully in parallel.
type Tenant struct {
	srv *Server

	// cfgMu guards cfg (rolling updates rewrite it).
	cfgMu sync.Mutex
	cfg   TenantConfig

	// vmMu guards the vm pointer only (held for pointer swaps and reads,
	// never across a request), so the budget prober can reach the current
	// VM while requests run.
	vmMu sync.Mutex
	vm   *vm.VM

	// sessionEpoch increments on every startSession. Pipeline workers
	// compare it against their private session's epoch to rebind lazily
	// after an OOM restart or rolling swap, and restartSession uses it to
	// dedupe concurrent restart attempts from sibling workers.
	sessionEpoch atomic.Int64
	// restartMu serializes restartSession: with K workers, two requests
	// can OOM on the same session back to back.
	restartMu sync.Mutex

	// pipeMu is the tenant's gate. enqueue holds the read side; exclusive
	// holds the write side from entry until release, so during maintenance
	// (session swap, reshape, eviction, shutdown audit) no request can land
	// on a pipeline that is draining or about to be closed — arrivals block
	// on the gate and see whatever the maintenance left behind.
	pipeMu sync.RWMutex
	pipe   *pipeline // nil only once evicted or shut down

	state atomic.Int32 // TenantState

	// cancel asks the in-flight request to stop at its next iteration
	// boundary (evict drain, daemon shutdown).
	cancel atomic.Bool

	// Fault bookkeeping (mu-free: written by the workers and by callers
	// taking a watchdog timeout).
	consecFaults atomic.Int64
	requests     atomic.Uint64
	faults       atomic.Uint64
	restarts     atomic.Uint64
	cancelled    atomic.Uint64

	lastErrMu sync.Mutex
	lastErr   string

	// hashMu guards the per-cycle live-set hash log of an AuditEveryGC
	// tenant (appended from OnGC inside the tenant VM's stop-the-world
	// pauses; read by the isolation tests). Empty, and no OnGC hook,
	// otherwise.
	hashMu sync.Mutex
	hashes []uint64

	// residentGauge is this tenant's lp_tenant_resident_bytes series.
	residentGauge *obs.Gauge
	// allocObjects and allocLocks are lp_heap_allocations_total and
	// lp_heap_alloc_shard_locks_total: their ratio is the allocator's
	// free-list lock acquisitions per object, readable without a profiler. The
	// budget prober advances them by what the session VM's heap counted
	// since its last look (allocSeen, under allocMu); a restarted session's
	// heap starts again from zero.
	allocObjects, allocLocks *obs.Counter
	allocMu                  sync.Mutex
	allocSeen                struct {
		vm             *vm.VM
		objects, locks uint64
	}
	// latency holds the tenant's lp_request_latency_ns series, one per
	// budget-ladder level; queueWait and queueDepth instrument the request
	// queue.
	latency    [ladderLevels]*obs.Histogram
	queueWait  *obs.Histogram
	queueDepth *obs.Gauge
}

// newTenant builds the tenant shell and its first session VM.
func newTenant(s *Server, cfg TenantConfig) (*Tenant, error) {
	t := &Tenant{srv: s, cfg: cfg}
	t.residentGauge = s.reg().NewGauge("lp_tenant_resident_bytes",
		"per-tenant resident heap bytes", obs.L("tenant", cfg.Name))
	t.allocObjects = s.reg().NewCounter("lp_heap_allocations_total",
		"objects allocated in the tenant's heap", obs.L("tenant", cfg.Name))
	t.allocLocks = s.reg().NewCounter("lp_heap_alloc_shard_locks_total",
		"allocator free-list lock acquisitions made to allocate them", obs.L("tenant", cfg.Name))
	t.queueWait = s.reg().NewHistogram("lp_request_queue_wait_ns",
		"time requests spent queued in the tenant pipeline", obs.LatencyBucketsNs,
		obs.L("tenant", cfg.Name))
	t.queueDepth = s.reg().NewGauge("lp_request_queue_depth",
		"requests waiting in the tenant pipeline queue", obs.L("tenant", cfg.Name))
	s.registerLatencySeries(t, cfg.Name)
	if err := t.startSession(cfg); err != nil {
		return nil, err
	}
	t.pipe = newPipeline(t, cfg)
	return t, nil
}

// startSession replaces the tenant's VM with a fresh one built from cfg
// and bumps the session epoch, on which every worker rebinds its private
// program and cursor before its next request. Callers are the constructor,
// a holder of exclusive(), or restartSession (where requests still running
// on the exhausted VM fail on their own and rebind).
func (t *Tenant) startSession(cfg TenantConfig) error {
	opts, err := cfg.vmOptions(t.srv.obs)
	if err != nil {
		return err
	}
	// The workers build their own program instances; an unknown workload
	// must still fail here, before any VM exists.
	if _, err := workload.New(cfg.Workload); err != nil {
		return err
	}
	if opts.HashLiveSet {
		opts.OnGC = func(ev vm.Event) {
			t.hashMu.Lock()
			t.hashes = append(t.hashes, ev.LiveHash)
			t.hashMu.Unlock()
		}
	}
	machine := vm.New(opts)
	t.vmMu.Lock()
	t.vm = machine
	t.vmMu.Unlock()
	t.sessionEpoch.Add(1)
	return nil
}

// publishAllocTotals advances the tenant's allocation counters to hs, the
// heap snapshot just read from machine.
func (t *Tenant) publishAllocTotals(machine *vm.VM, hs heap.Stats) {
	t.allocMu.Lock()
	defer t.allocMu.Unlock()
	seen := &t.allocSeen
	if seen.vm != machine {
		seen.vm, seen.objects, seen.locks = machine, 0, 0
	}
	if hs.ObjectsAlloc > seen.objects {
		t.allocObjects.Add(hs.ObjectsAlloc - seen.objects)
		seen.objects = hs.ObjectsAlloc
	}
	if hs.AllocShardLocks > seen.locks {
		t.allocLocks.Add(hs.AllocShardLocks - seen.locks)
		seen.locks = hs.AllocShardLocks
	}
}

// currentVM returns the live session VM (prober, metrics, audits).
func (t *Tenant) currentVM() *vm.VM {
	t.vmMu.Lock()
	defer t.vmMu.Unlock()
	return t.vm
}

// State returns the tenant's lifecycle state.
func (t *Tenant) State() TenantState { return TenantState(t.state.Load()) }

// Config returns a copy of the tenant's current configuration.
func (t *Tenant) Config() TenantConfig {
	t.cfgMu.Lock()
	defer t.cfgMu.Unlock()
	return t.cfg
}

// CycleHashes returns the per-cycle live-set hash log of an AuditEveryGC
// tenant, one entry per collection since admission — the
// byte-identical-sibling oracle the isolation tests compare against a
// fault-free control. Empty for a tenant admitted without
// AuditEveryGC.
func (t *Tenant) CycleHashes() []uint64 {
	t.hashMu.Lock()
	defer t.hashMu.Unlock()
	return append([]uint64(nil), t.hashes...)
}

// exclusive acquires the tenant for maintenance (session swap, eviction
// drain, shutdown audit). It shuts the gate first — from here until
// release() no request can enqueue — and then waits up to d for the ones
// already inside to finish, so the wait ends however hard callers keep
// arriving. On success the caller owns the tenant and must release(); on
// timeout the gate is reopened. A tenant whose pipeline is already gone
// has nothing to wait for.
func (t *Tenant) exclusive(d time.Duration) bool {
	deadline := time.Now().Add(d)
	t.pipeMu.Lock()
	for t.pipe != nil && t.pipe.pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.pipeMu.Unlock()
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// release reopens the gate exclusive shut.
func (t *Tenant) release() { t.pipeMu.Unlock() }

// setLastErr records the most recent fault for /tenants.
func (t *Tenant) setLastErr(err error) {
	t.lastErrMu.Lock()
	if err == nil {
		t.lastErr = ""
	} else {
		t.lastErr = err.Error()
	}
	t.lastErrMu.Unlock()
}

// LastError returns the most recent fault message ("" when the last
// request succeeded).
func (t *Tenant) LastError() string {
	t.lastErrMu.Lock()
	defer t.lastErrMu.Unlock()
	return t.lastErr
}

// execState is one request-execution context: a VM, a program instance,
// and the session's iteration cursor. Every pipeline worker owns a private
// one, so K workers drive K independent sessions of the workload inside
// the one tenant VM.
type execState struct {
	machine *vm.VM
	prog    workload.Program
	ready   bool // Setup has run for this session
	iter    int  // the session's absolute iteration cursor
}

// executeRequest runs one request against st and returns the advanced
// state. The three failure classes are kept apart deliberately:
//
//   - VM traps (OutOfMemoryError, InternalError, OffloadError) arrive as
//     typed errors from RunThread — the leak-pruning outcome the daemon
//     exists to host;
//   - raw panics (the TenantRequestPanic injection stands in for handler
//     bugs) are recovered HERE, at the tenant boundary, and converted to
//     *RequestPanicError — the crash-isolation guarantee;
//   - cancellation (drain, eviction, watchdog abandonment) surfaces as
//     *RequestCancelledError at an iteration boundary.
//
// yield inserts a cooperative scheduling point after every iteration. A
// pool of more than one worker sets it: on an oversubscribed host the Go
// scheduler's preemption slice (~10ms) is three orders of magnitude
// coarser than one workload iteration, so without an explicit yield a long
// request holds the processor for whole slices and small requests on
// sibling workers wait out full scheduler rounds — head-of-line blocking
// reintroduced by the runtime after the pool removed it from the queue.
// Yielding at iteration granularity lets the run queue rotate per ~25µs of
// work. A lone worker has no sibling to yield to.
func (t *Tenant) executeRequest(st execState, reqName string, iters int, yield bool, cancelled func() bool) (out execState, done int, err error) {
	cfg := t.Config()
	defer func() {
		// A panic escapes with the closure's st mutations intact, so the
		// session cursor keeps the progress made before the blowup.
		out = st
		if r := recover(); r != nil {
			err = &RequestPanicError{Tenant: cfg.Name, Panic: fmt.Sprint(r)}
		}
	}()
	runErr := st.machine.RunThread(reqName, func(th *vm.Thread) {
		if cfg.DaemonInjector.Should(faultinject.TenantRequestPanic) {
			panic(fmt.Sprintf("faultinject: tenant %s request handler panic", cfg.Name))
		}
		if !st.ready {
			th.Scope(func() { st.prog.Setup(th) })
			st.ready = true
		}
		for i := 0; i < iters; i++ {
			if cancelled() {
				return
			}
			th.Scope(func() { st.prog.Iterate(th, st.iter) })
			st.iter++
			done = i + 1
			if yield {
				runtime.Gosched()
			}
		}
	})
	if runErr != nil {
		return st, done, runErr
	}
	if done < iters {
		t.cancelled.Add(1)
		return st, done, &RequestCancelledError{Tenant: cfg.Name, IterationsDone: done}
	}
	return st, done, nil
}

// recordOutcome updates fault bookkeeping after a request and flips the
// tenant into quarantine at the K-th consecutive fault. Session restarts
// (OOM) are handled by the caller.
func (t *Tenant) recordOutcome(err error) {
	if err == nil {
		t.consecFaults.Store(0)
		t.setLastErr(nil)
		return
	}
	t.setLastErr(err)
	t.faults.Add(1)
	k := t.consecFaults.Add(1)
	if limit := int64(t.srv.cfg.QuarantineThreshold); limit > 0 && k >= limit {
		if t.state.CompareAndSwap(int32(TenantServing), int32(TenantQuarantined)) {
			t.srv.mQuarantines.Inc()
			t.srv.logf("tenant %s quarantined after %d consecutive faults (last: %v)", t.Config().Name, k, err)
		}
	}
}

// TenantStatus is the /tenants JSON row.
type TenantStatus struct {
	Name       string  `json:"name"`
	Workload   string  `json:"workload"`
	Policy     string  `json:"policy"`
	State      string  `json:"state"`
	Pipeline   string  `json:"pipeline"`
	Workers    int     `json:"workers"`
	HeapLimit  uint64  `json:"heap_limit"`
	Resident   uint64  `json:"resident_bytes"`
	NearlyFull float64 `json:"nearly_full_fraction"`
	PruneState string  `json:"prune_state"`

	Requests     uint64 `json:"requests"`
	Faults       uint64 `json:"faults"`
	ConsecFaults int64  `json:"consecutive_faults"`
	Restarts     uint64 `json:"session_restarts"`
	Cancelled    uint64 `json:"cancelled_requests"`

	Collections     uint64 `json:"collections"`
	PrunedRefs      uint64 `json:"pruned_refs"`
	PoisonTraps     uint64 `json:"poison_traps"`
	AuditsRun       uint64 `json:"audits_run,omitempty"`
	AuditViolations uint64 `json:"audit_violations,omitempty"`
	Cycles          int    `json:"live_hash_cycles"`
	LastError       string `json:"last_error,omitempty"`
}

// status snapshots the tenant for /tenants and logs.
func (t *Tenant) status() TenantStatus {
	cfg := t.Config()
	machine := t.currentVM()
	workers, _ := cfg.pipelineSettings()
	st := TenantStatus{
		Name:         cfg.Name,
		Workload:     cfg.Workload,
		Policy:       policyLabel(cfg.Policy),
		State:        t.State().String(),
		Pipeline:     PipelineSerial,
		Workers:      workers,
		HeapLimit:    cfg.HeapLimit,
		Requests:     t.requests.Load(),
		Faults:       t.faults.Load(),
		ConsecFaults: t.consecFaults.Load(),
		Restarts:     t.restarts.Load(),
		Cancelled:    t.cancelled.Load(),
		LastError:    t.LastError(),
	}
	if workers > 1 || cfg.Pipeline == PipelineConcurrent {
		st.Pipeline = PipelineConcurrent
	}
	if machine != nil {
		st.Resident = machine.HeapStats().BytesUsed
		st.NearlyFull = machine.NearlyFullFraction()
		st.PruneState = machine.State().String()
		vs := machine.Stats()
		st.Collections = vs.Collections
		st.PrunedRefs = vs.PrunedRefs
		st.PoisonTraps = vs.PoisonTraps
		st.AuditsRun = vs.AuditsRun
		st.AuditViolations = vs.AuditViolations
	}
	t.hashMu.Lock()
	st.Cycles = len(t.hashes)
	t.hashMu.Unlock()
	return st
}

func policyLabel(name string) string {
	if vm.NoPolicyName(name) {
		return "off"
	}
	return name
}
