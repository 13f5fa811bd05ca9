package server

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leakpruning/internal/core"
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
	// GCWorkers sets tracer parallelism (0 = 1: tenants are many, cores are
	// few, and single-worker tracing keeps per-tenant behavior
	// deterministic for the isolation proofs).
	GCWorkers int `json:"gc_workers,omitempty"`
	// NearlyFullFraction seeds the tenant's OBSERVE → SELECT threshold
	// (0 = the paper's 0.9). The budget ladder may tighten it at runtime.
	NearlyFullFraction float64 `json:"nearly_full_fraction,omitempty"`
	// DiskLimit sizes the melt policy's simulated disk (0 = 2x heap).
	DiskLimit uint64 `json:"disk_limit,omitempty"`
	// AuditEveryGC is the one "verify this tenant" switch: it arms the
	// heap invariant audit inside every collection and fingerprints the
	// live set after each one (CycleHashes, live_hash_cycles). Both walk
	// the whole heap inside the pause, so a production tenant leaves it
	// off; the isolation tests and chaos scenarios set it on the tenants
	// whose hash sequences they compare.
	AuditEveryGC bool `json:"audit_every_gc,omitempty"`
	// Pipeline selects the request execution model: "" or "serial" (the
	// default — one request at a time behind the exclusive tenant lock,
	// which keeps per-tenant behavior deterministic and serves as the
	// equivalence oracle), or "concurrent" (a pool of Workers session
	// threads fed by a bounded queue, so small requests stop waiting
	// head-of-line behind large ones).
	Pipeline string `json:"pipeline,omitempty"`
	// Workers is the concurrent pipeline's pool size K (0 = 4). Each
	// worker drives its own independent session of the workload inside the
	// tenant VM — the multi-thread mutator shape the safepoint protocol
	// makes sound. Rejected unless Pipeline is "concurrent".
	Workers int `json:"workers,omitempty"`
	// QueueDepth bounds the concurrent pipeline's request queue
	// (0 = 4*Workers). A full queue sheds the request with a typed
	// *QueueFullError (HTTP 429). Rejected unless Pipeline is "concurrent".
	QueueDepth int `json:"queue_depth,omitempty"`

	// VMInjector arms fault injection inside this tenant's VM (nil = off).
	VMInjector *faultinject.Injector `json:"-"`
	// DaemonInjector arms the daemon-level points (TenantRequestPanic,
	// EvictDrainTimeout) for this tenant only (nil = off). Chaos scenarios
	// use it to storm one tenant while its siblings run clean.
	DaemonInjector *faultinject.Injector `json:"-"`
}

// vmOptions translates the tenant config into vm.Options. The result is
// validated with vm.ValidateOptions before any VM is constructed, so a bad
// rolling update is rejected with a typed error instead of panicking the
// daemon mid-swap.
func (tc TenantConfig) vmOptions(o *obs.Obs) (vm.Options, error) {
	opts := vm.Options{
		HeapLimit:          tc.HeapLimit,
		EnableBarriers:     true,
		GCWorkers:          tc.GCWorkers,
		NearlyFullFraction: tc.NearlyFullFraction,
		FaultInjector:      tc.VMInjector,
		AuditEveryGC:       tc.AuditEveryGC,
		HashLiveSet:        tc.AuditEveryGC,
		Obs:                o,
	}
	if opts.GCWorkers == 0 {
		opts.GCWorkers = 1
	}
	switch tc.Policy {
	case "melt":
		opts.OffloadDisk = tc.DiskLimit
		if opts.OffloadDisk == 0 {
			opts.OffloadDisk = 2 * tc.HeapLimit
		}
	case "", "off", "base", "none":
		// No pruning: barriers stay on so staleness metrics exist, but the
		// tenant relies on plain collection (and session restarts at OOM).
	default:
		p, err := core.PolicyByName(tc.Policy)
		if err != nil {
			return vm.Options{}, err
		}
		opts.Policy = p
	}
	switch tc.MarkMode {
	case "", "stw":
	case "concurrent":
		opts.MarkMode = vm.MarkConcurrent
	default:
		return vm.Options{}, fmt.Errorf("server: unknown mark mode %q", tc.MarkMode)
	}
	switch tc.Pipeline {
	case "", PipelineSerial:
		if tc.Workers != 0 || tc.QueueDepth != 0 {
			return vm.Options{}, fmt.Errorf("server: Workers/QueueDepth require pipeline %q", PipelineConcurrent)
		}
	case PipelineConcurrent:
		if tc.Workers < 0 || tc.QueueDepth < 0 {
			return vm.Options{}, fmt.Errorf("server: Workers and QueueDepth must be non-negative")
		}
	default:
		return vm.Options{}, fmt.Errorf("server: unknown pipeline %q", tc.Pipeline)
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

// pipelineSettings resolves the Pipeline/Workers/QueueDepth triple with
// its defaults applied.
func (tc TenantConfig) pipelineSettings() (concurrent bool, workers, depth int) {
	if tc.Pipeline != PipelineConcurrent {
		return false, 0, 0
	}
	workers = tc.Workers
	if workers == 0 {
		workers = 4
	}
	depth = tc.QueueDepth
	if depth == 0 {
		depth = 4 * workers
	}
	return true, workers, depth
}

// Tenant is one hosted session: a VM, its workload program, and the
// fault-isolation bookkeeping around them. Requests are serialized per
// tenant through lockCh (a channel so eviction and shutdown can attempt
// timed acquisition); distinct tenants serve fully in parallel.
type Tenant struct {
	srv *Server

	// cfgMu guards cfg (rolling updates rewrite it).
	cfgMu sync.Mutex
	cfg   TenantConfig

	// lockCh is the request lock: one token means "free". Serial-pipeline
	// requests hold it for their whole execution; concurrent-pipeline
	// requests never take it (the worker pool owns execution), so
	// maintenance paths that need full quiescence go through exclusive(),
	// which takes lockCh AND drains the pipeline's pending counter.
	lockCh chan struct{}

	// vmMu guards the vm/program pointers only (held for pointer swaps and
	// reads, never across a request), so the budget prober can reach the
	// current VM while a request holds lockCh.
	vmMu  sync.Mutex
	vm    *vm.VM
	prog  workload.Program
	ready bool // Setup has run on the current session

	// sessionEpoch increments on every startSession. Pipeline workers
	// compare it against their private session's epoch to rebind lazily
	// after an OOM restart or rolling swap, and restartSession uses it to
	// dedupe concurrent restart attempts from sibling workers.
	sessionEpoch atomic.Int64
	// restartMu serializes restartSession: with K workers, two requests
	// can OOM on the same session back to back.
	restartMu sync.Mutex

	// pipeMu guards the pipe pointer and orders enqueues against pipeline
	// close/reshape: enqueue happens under the read side, so once a writer
	// holds pipeMu no request can land on a pipeline it is about to close.
	pipeMu sync.RWMutex
	pipe   *pipeline // nil = serial

	state atomic.Int32 // TenantState

	// cancel asks the in-flight request to stop at its next iteration
	// boundary (evict drain, daemon shutdown).
	cancel atomic.Bool

	// iter is the workload's absolute iteration cursor for this session.
	iter int

	// Fault bookkeeping (mu-free: written only under lockCh plus the
	// watchdog path, so atomics keep the -race suite honest).
	consecFaults atomic.Int64
	requests     atomic.Uint64
	faults       atomic.Uint64
	restarts     atomic.Uint64
	cancelled    atomic.Uint64

	lastErrMu sync.Mutex
	lastErr   string

	// hashMu guards the per-cycle live-set hash log of an AuditEveryGC
	// tenant (appended from OnGC inside the tenant VM's stop-the-world
	// pauses; read by chaos). Empty, and no OnGC hook, otherwise.
	hashMu sync.Mutex
	hashes []uint64

	// residentGauge is this tenant's lp_tenant_resident_bytes series.
	residentGauge *obs.Gauge
	// allocObjects and allocLocks are lp_heap_allocations_total and
	// lp_heap_alloc_shard_locks_total: their ratio is the allocator's
	// shard-lock acquisitions per object, readable without a profiler. The
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
	// budget-ladder level; queueWait and queueDepth instrument the
	// concurrent pipeline (registered even for serial tenants so a rolling
	// swap to concurrent needs no re-registration).
	latency    [ladderLevels]*obs.Histogram
	queueWait  *obs.Histogram
	queueDepth *obs.Gauge
}

// newTenant builds the tenant shell and its first session VM.
func newTenant(s *Server, cfg TenantConfig) (*Tenant, error) {
	t := &Tenant{srv: s, cfg: cfg, lockCh: make(chan struct{}, 1)}
	t.lockCh <- struct{}{} // free
	t.residentGauge = s.reg().NewGauge("lp_tenant_resident_bytes",
		"per-tenant resident heap bytes", obs.L("tenant", cfg.Name))
	t.allocObjects = s.reg().NewCounter("lp_heap_allocations_total",
		"objects allocated in the tenant's heap", obs.L("tenant", cfg.Name))
	t.allocLocks = s.reg().NewCounter("lp_heap_alloc_shard_locks_total",
		"allocator shard-mutex acquisitions made to allocate them", obs.L("tenant", cfg.Name))
	t.queueWait = s.reg().NewHistogram("lp_request_queue_wait_ns",
		"time requests spent queued in the tenant pipeline", obs.LatencyBucketsNs,
		obs.L("tenant", cfg.Name))
	t.queueDepth = s.reg().NewGauge("lp_request_queue_depth",
		"requests waiting in the tenant pipeline queue", obs.L("tenant", cfg.Name))
	s.registerLatencySeries(t, cfg.Name)
	if err := t.startSession(cfg); err != nil {
		return nil, err
	}
	if conc, workers, depth := cfg.pipelineSettings(); conc {
		t.pipe = newPipeline(t, workers, depth)
	}
	return t, nil
}

// startSession replaces the tenant's VM and program with a fresh session
// built from cfg. Callers must ensure no request is running (hold the
// request lock or be the constructor).
func (t *Tenant) startSession(cfg TenantConfig) error {
	opts, err := cfg.vmOptions(t.srv.obs)
	if err != nil {
		return err
	}
	prog, err := workload.New(cfg.Workload)
	if err != nil {
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
	t.prog = prog
	t.ready = false
	t.vmMu.Unlock()
	t.iter = 0
	// Pipeline workers rebind their private sessions on the next request.
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
// byte-identical-sibling oracle the chaos isolation scenarios compare
// against a fault-free control. Empty for a tenant admitted without
// AuditEveryGC.
func (t *Tenant) CycleHashes() []uint64 {
	t.hashMu.Lock()
	defer t.hashMu.Unlock()
	return append([]uint64(nil), t.hashes...)
}

// acquire takes the request lock, or gives up after d (d <= 0: wait
// forever).
func (t *Tenant) acquire(d time.Duration) bool {
	if d <= 0 {
		<-t.lockCh
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-t.lockCh:
		return true
	case <-timer.C:
		return false
	}
}

func (t *Tenant) release() { t.lockCh <- struct{}{} }

// exclusive acquires the tenant for maintenance (session swap, eviction
// drain, shutdown audit): the request lock, plus — when a concurrent
// pipeline is attached — full quiescence of the worker pool. Serial
// requests hold lockCh for their whole execution, so the lock alone
// excludes them; pipelined requests never touch it, so quiescence there
// is "no request enqueued or in flight", i.e. the pipeline's pending
// counter at zero. Callers must t.release() on success.
func (t *Tenant) exclusive(d time.Duration) bool {
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	if !t.acquire(d) {
		return false
	}
	t.pipeMu.RLock()
	p := t.pipe
	t.pipeMu.RUnlock()
	if p == nil {
		return true
	}
	for p.pending.Load() != 0 {
		if d > 0 && time.Now().After(deadline) {
			t.release()
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

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
// and the session's iteration cursor. The serial path materializes it
// from the tenant fields each request; every pipeline worker owns a
// private one, so K workers drive K independent sessions of the workload
// inside the one tenant VM.
type execState struct {
	machine *vm.VM
	prog    workload.Program
	ready   bool // Setup has run for this session
	iter    int  // the session's absolute iteration cursor
}

// serve executes one request (iters workload iterations) on the tenant's
// serial session. Caller holds the request lock.
func (t *Tenant) serve(iters int) (done int, err error) {
	t.vmMu.Lock()
	st := execState{machine: t.vm, prog: t.prog, ready: t.ready, iter: t.iter}
	t.vmMu.Unlock()
	reqName := fmt.Sprintf("%s/req-%d", t.Config().Name, t.requests.Load())
	st, done, err = t.executeRequest(st, reqName, iters, false, func() bool {
		return t.cancel.Load() || t.srv.cancelAll.Load()
	})
	t.vmMu.Lock()
	if t.vm == st.machine { // session not swapped out from under the request
		t.ready = st.ready
	}
	t.vmMu.Unlock()
	t.iter = st.iter
	return done, err
}

// executeRequest runs one request against st and returns the advanced
// state. It is the shared core of the serial path and the pipeline
// workers — panic recovery and error typing are identical on both, which
// is what keeps the serial pipeline a meaningful equivalence oracle. The
// three failure classes are kept apart deliberately:
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
// yield inserts a cooperative scheduling point after every iteration.
// Pipeline workers set it: on an oversubscribed host the Go scheduler's
// preemption slice (~10ms) is three orders of magnitude coarser than one
// workload iteration, so without an explicit yield a long request holds
// the processor for whole slices and small requests on sibling workers
// wait out full scheduler rounds — head-of-line blocking reintroduced by
// the runtime after the pipeline removed it from the lock. Yielding at
// iteration granularity lets the run queue rotate per ~25µs of work. The
// serial path never yields: it is the preserved baseline the pipeline is
// measured against, and with one session thread there is nobody to yield
// to.
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
	Workers    int     `json:"workers,omitempty"`
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

// Status snapshots the tenant: the /tenants JSON row, also what the chaos
// and load-generation harnesses read their oracles from.
func (t *Tenant) Status() TenantStatus { return t.status() }

// status snapshots the tenant for /tenants and logs.
func (t *Tenant) status() TenantStatus {
	cfg := t.Config()
	machine := t.currentVM()
	st := TenantStatus{
		Name:         cfg.Name,
		Workload:     cfg.Workload,
		Policy:       policyLabel(cfg.Policy),
		State:        t.State().String(),
		Pipeline:     PipelineSerial,
		HeapLimit:    cfg.HeapLimit,
		Requests:     t.requests.Load(),
		Faults:       t.faults.Load(),
		ConsecFaults: t.consecFaults.Load(),
		Restarts:     t.restarts.Load(),
		Cancelled:    t.cancelled.Load(),
		LastError:    t.LastError(),
	}
	if conc, workers, _ := cfg.pipelineSettings(); conc {
		st.Pipeline = PipelineConcurrent
		st.Workers = workers
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
	switch name {
	case "", "off", "base", "none":
		return "off"
	}
	return name
}
