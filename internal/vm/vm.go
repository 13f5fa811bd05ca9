package vm

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"leakpruning/internal/core"
	"leakpruning/internal/edgetable"
	"leakpruning/internal/faultinject"
	"leakpruning/internal/gc"
	"leakpruning/internal/heap"
	"leakpruning/internal/obs"
	"leakpruning/internal/offload"
	"leakpruning/internal/trace"
	"leakpruning/internal/vmerrors"
)

// Event describes one completed full-heap collection.
type Event struct {
	Result gc.Result
	Heap   heap.Stats
	State  core.State
	// Pauses lists the cycle's stop-the-world pauses in order. STW mark mode
	// has one entry (the whole cycle runs inside it); concurrent mark mode
	// has three (root snapshot, final remark, closing bookkeeping). The last
	// pause is still open when OnGC runs, so its entry excludes only the
	// world-restart tail; time-to-stop latency is tracked separately
	// (lp_safepoint_stop_ns).
	Pauses []time.Duration
	// LiveHash is the post-collection live-set fingerprint, computed inside
	// the cycle's final pause when Options.HashLiveSet is set (0 otherwise).
	LiveHash uint64
}

// Stats aggregates VM-level counters.
type Stats struct {
	Collections   uint64
	GCTime        time.Duration
	Loads         uint64 // reference loads through the mutator API
	BarrierHits   uint64 // cold-path executions (tag bit set)
	PoisonTraps   uint64 // InternalErrors raised for poisoned accesses
	Allocations   uint64
	PrunedRefs    uint64
	FinalizersRun uint64

	// Robustness and degradation counters.
	FinalizerPanics      uint64 // finalizer panics recovered without aborting the STW
	PrunedEdgeOverflows  uint64 // poisoned-slot records dropped at the diagnostic cap
	EdgeTableOverflows   uint64 // edge-type insertions dropped by a full (or injected-full) table
	DegradedTraces       uint64 // collections completed via the serial fallback tracer
	RecoveredTracePanics uint64 // trace-worker panics recovered at the goroutine boundary
	WatchdogAborts       uint64 // parallel closures abandoned by the STW watchdog
	FreeListRepairs      uint64 // corrupt free-list entries detected and discarded
	AuditsRun            uint64 // heap invariant audits performed (AuditEveryGC / Verify)
	AuditViolations      uint64 // cumulative violations those audits reported
}

// FinalizerInfo is passed to finalizer functions when their object is
// collected. Finalizers run inside the collection's stop-the-world section
// and must not touch the VM; they model external-resource cleanup (§2).
type FinalizerInfo struct {
	Class string
	Size  uint64
}

type prunedEdgeKey struct {
	src  heap.ObjectID
	slot int
}

// maxPrunedEdgeRecords bounds the poisoned-reference diagnostic map.
const maxPrunedEdgeRecords = 1 << 20

// VM is one simulated managed runtime instance.
type VM struct {
	opts Options

	classes   *heap.Registry
	heap      *heap.Heap
	collector *gc.Collector
	ctrl      *core.Controller
	offloader *offload.Controller // Melt-style baseline; nil unless enabled

	// world synchronizes mutator operations against stop-the-world
	// collections with the safepoint protocol (see world.go).
	world world

	// cycleMu serializes full collection cycles. In STW mark mode the pause
	// itself already excludes overlap, so the lock is uncontended paperwork;
	// in concurrent mark mode a cycle spans three pauses with the world
	// running in between, and cycleMu is what keeps a second trigger from
	// starting a cycle inside that window. Always acquired BEFORE stopping
	// the world, never while it is stopped.
	cycleMu sync.Mutex
	// gcActive is true while a concurrent cycle is between its first and
	// last pauses — the allocation-trigger fast-out, so mutators do not
	// queue on cycleMu for a cycle that is already running.
	gcActive atomic.Bool

	// SATB deletion-barrier state (satb.go). satbArmed shares threadMu with
	// thread registration; satbMu guards the overflow list that full
	// per-thread buffers and exiting threads spill into; satbDropped flags a
	// detected (injected) barrier loss, forcing the remark to degrade.
	satbArmed    bool
	satbMu       sync.Mutex
	satbOverflow []heap.Ref
	satbDropped  atomic.Bool

	// threadMu guards the live-thread set and the retired counter totals
	// that Exit folds in when a thread unregisters.
	threadMu sync.Mutex
	threads  map[*Thread]struct{}
	retired  struct {
		loads       uint64
		allocs      uint64
		barrierHits uint64
	}

	// The global root table is chunked so that a published slot's address
	// never changes: AddGlobal (serialized by globalMu) installs fixed-size
	// chunks into a fixed-length spine and only then publishes the new
	// count, while mutator threads Load/StoreGlobal through atomic chunk
	// pointers with no lock at all. A flat append-grown slice would move
	// the backing array under concurrent readers — with K pipeline worker
	// sessions per VM, AddGlobal during one session's Setup races another
	// session's loads.
	globalMu    sync.Mutex
	globalCount atomic.Int64
	globalSpine [globalSpineLen]atomic.Pointer[globalChunk]

	// finalMu guards finalizers; finalizerCount mirrors its length so a
	// collection can tell with one atomic load that no finalizer is
	// registered and leave the sweep's per-freed-object hook out of its plan
	// (onFreeHook).
	finalMu        sync.Mutex
	finalizers     map[heap.ObjectID]func(FinalizerInfo)
	finalizerCount atomic.Int64

	// prunedEdges remembers the target class of poisoned references so the
	// InternalError raised on access can name the edge type. The map is
	// bounded by prunedEdgeCap (maxPrunedEdgeRecords, lowered by tests);
	// records past the cap are counted in prunedOverflows instead of being
	// silently dropped, and the trap falls back to the "<pruned>" label.
	prunedMu        sync.Mutex
	prunedEdges     map[prunedEdgeKey]heap.ClassID
	prunedEdgeCap   int
	prunedOverflows atomic.Uint64

	// inj is the fault injector shared with the heap, collector, edge
	// table, and offloader (nil: injection disabled).
	inj                *faultinject.Injector
	finalizerPanics    atomic.Uint64
	lastFinalizerPanic atomic.Value // string

	// auditMu guards the most recent invariant-audit report and the first
	// one that found a violation.
	auditMu         sync.Mutex
	lastAudit       []string
	firstBadAudit   []string
	auditsRun       atomic.Uint64
	auditViolations atomic.Uint64

	// lastGCAlloc is the cumulative allocation count at the previous
	// collection, used to gate stale-counter aging on mutator progress.
	lastGCAlloc uint64
	// lastOffloaded is how many bytes the offload baseline moved to disk in
	// the most recent collection (progress for the allocation slow path).
	lastOffloaded uint64

	// mode is the mode word every Load and Store reads (opMode): the
	// read-barrier shape and whether ops leave the inline path. Plain
	// memory: New writes it before any thread exists, and finishCollect's
	// LazyBarriers flip writes it in the cycle's final stop-the-world pause,
	// so the safepoint protocol orders it against every critical region
	// that reads it.
	mode opMode

	// gcTrigger is the soft collection threshold: once BytesUsed exceeds
	// it, the next allocation runs a full-heap collection even though the
	// hard limit is not reached. It models the adaptive heap sizing real
	// VMs perform: collections happen throughout the fill toward the
	// maximum heap, which is what gives the pruning state machine time to
	// observe staleness before memory is exhausted (§3.1).
	gcTrigger atomic.Uint64

	// poisonTraps stays a VM-global atomic: traps are terminal for their
	// thread, so the counter is never on a fast path. Loads, allocations,
	// and barrier hits are counted per thread in plain words (see Thread)
	// and summed by Stats at a safepoint handshake.
	poisonTraps atomic.Uint64
	gcTimeNanos atomic.Int64
	finalizersN atomic.Uint64

	// recorder is the allocation-trace recorder (nil when recording is
	// off; all its methods are nil-safe). Mutator events flow through
	// per-thread streams (Thread.rec); the VM itself records class and
	// global definitions, collector frees, and GC-cycle outcomes, and
	// drains the streams at every stop-the-world (preparePlan).
	recorder *trace.Recorder

	// Observability handles (all nil when Options.Obs is nil; every method
	// on them is nil-safe, so instrumentation sites stay unconditional and
	// cost one branch when disabled). A thread's trace track id lives on
	// Thread; these are the VM-global pieces.
	obsTracer      *obs.Tracer
	obsPoisonTraps *obs.Counter
	obsBarrierCold *obs.Counter
	obsStopNs      *obs.Histogram
	// obsPauseNs is indexed by the cycle's gc.Mode: each histogram carries a
	// "mode" label so dashboards can tell a normal cycle's pauses from the
	// SELECT/PRUNE pauses the concurrent snapshot machinery keeps short.
	obsPauseNs [3]*obs.Histogram

	// maxPauseNs tracks, per cycle mode, the longest stop-the-world pause
	// observed so far (always maintained, with or without Options.Obs —
	// the daemon's /pressure endpoint reports it per tenant).
	maxPauseNs [3]atomic.Int64
}

// New constructs a VM. Invalid option combinations panic: configuration is
// program structure, not a runtime condition.
func New(opts Options) *VM {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		panic(err)
	}
	classes := heap.NewRegistry()
	v := &VM{
		opts:          opts,
		classes:       classes,
		heap:          heap.New(classes, opts.HeapLimit),
		threads:       make(map[*Thread]struct{}),
		finalizers:    make(map[heap.ObjectID]func(FinalizerInfo)),
		prunedEdges:   make(map[prunedEdgeKey]heap.ClassID),
		prunedEdgeCap: maxPrunedEdgeRecords,
		inj:           opts.FaultInjector,
	}
	v.world.init()
	v.recorder = opts.TraceRecorder
	v.recorder.SetFingerprint(opts.Fingerprint())
	v.collector = gc.NewCollector(v.heap, (*rootVisitor)(v), opts.GCWorkers)
	v.heap.SetFaultInjector(v.inj)
	v.collector.SetFaultInjector(v.inj)
	v.collector.SetWatchdog(opts.STWWatchdog)
	if opts.Obs != nil {
		v.obsTracer = opts.Obs.Tracer()
		reg := opts.Obs.Registry()
		v.obsPoisonTraps = reg.NewCounter("lp_poison_traps_total", "InternalErrors raised for poisoned accesses")
		v.obsBarrierCold = reg.NewCounter("lp_barrier_cold_hits_total", "read-barrier cold-path executions")
		v.obsStopNs = reg.NewHistogram("lp_safepoint_stop_ns", "stop-the-world time-to-stop latency",
			obs.DurationBucketsNs)
		for m := gc.ModeNormal; m <= gc.ModePrune; m++ {
			v.obsPauseNs[m] = reg.NewHistogram("lp_gc_pause_ns", "stop-the-world pause duration per GC pause",
				obs.DurationBucketsNs, obs.L("mark", opts.MarkMode.String()), obs.L("mode", m.String()))
		}
		v.collector.SetObs(opts.Obs)
		v.heap.SetObs(opts.Obs)
		v.inj.SetObs(opts.Obs)
	}
	v.gcTrigger.Store(softTrigger(0, opts.HeapLimit))
	// Offloading and forced-state overhead runs need barriers from the
	// start regardless of laziness.
	if opts.EnableBarriers && (!opts.LazyBarriers || opts.OffloadDisk > 0 || opts.Forced) {
		v.mode = opts.barrierShape()
	}
	if opts.OffloadDisk > 0 || opts.TraceRecorder != nil {
		v.mode |= opsOutOfLine
	}
	ctrlOpts := core.Options{
		Policy:             opts.Policy,
		NearlyFullFraction: opts.NearlyFullFraction,
		FullHeapOnly:       opts.FullHeapOnly,
		ForceState:         opts.ForceState,
		Forced:             opts.Forced,
		OnPrune:            opts.OnPrune,
		OnOOM:              opts.OnOOM,
	}
	if opts.OffloadDisk > 0 {
		// The offload baseline needs staleness tracking on every
		// collection; pin the controller in OBSERVE to get the tagging and
		// aging plans without any pruning.
		ctrlOpts.Forced = true
		ctrlOpts.ForceState = core.StateObserve
		v.heap.SetDiskLimit(opts.OffloadDisk)
		v.offloader = offload.New(offload.Config{DiskLimit: opts.OffloadDisk})
	}
	v.ctrl = core.NewController(classes, ctrlOpts)
	v.ctrl.Edges().SetFaultInjector(v.inj)
	if opts.OffloadDisk > 0 {
		v.offloader.SetFaultInjector(v.inj)
		v.offloader.SetObs(opts.Obs)
	}
	return v
}

// DefineClass registers a class with default shape and returns its ID.
func (v *VM) DefineClass(name string, refSlots, scalarBytes int) heap.ClassID {
	id := v.classes.Define(name, refSlots, scalarBytes)
	v.recorder.DefineClass(uint32(id), name, refSlots, scalarBytes)
	return id
}

// Classes exposes the class registry.
func (v *VM) Classes() *heap.Registry { return v.classes }

// HeapStats returns the heap accounting snapshot. Allocation counts that
// live threads have not yet folded into the heap are summed in from each
// context's atomic pending word, so the snapshot is exact whenever no
// mutator is running — and, unlike Stats, taking it stops no one, which is
// what lets the daemon's budget prober poll it.
func (v *VM) HeapStats() heap.Stats {
	st := v.heap.Stats()
	v.threadMu.Lock()
	for t := range v.threads {
		t.alloc.AddPending(&st)
	}
	v.threadMu.Unlock()
	return st
}

// HeapLimit returns the configured maximum heap size.
func (v *VM) HeapLimit() uint64 { return v.opts.HeapLimit }

// State returns the pruning controller's current state.
func (v *VM) State() core.State { return v.ctrl.State() }

// EdgeTable exposes the pruning controller's edge table for reports.
func (v *VM) EdgeTable() *edgetable.Table { return v.ctrl.Edges() }

// PruneEvents returns the controller's prune log.
func (v *VM) PruneEvents() []core.PruneEvent {
	v.lockOutSTW()
	defer v.unlockOutSTW()
	return append([]core.PruneEvent(nil), v.ctrl.Events()...)
}

// Stats returns VM counters. Loads, allocations, and barrier hits are plain
// per-thread words on the mutator fast path, so Stats reads them at a
// safepoint handshake: every thread is between operations while it sums the
// live threads' counters plus the totals folded in by exited threads, which
// makes the sum exact — every operation that returned before Stats was
// called is in it, a thread that never exited included. The handshake is
// not a pause (world.go); like Collect, Stats may be called between
// operations on a live Thread but not from inside a critical region, a
// Thread.Region body or a GC callback. HeapStats stays handshake-free for
// callers that poll.
func (v *VM) Stats() Stats {
	v.handshake()
	pruned := v.ctrl.TotalPrunedRefs()
	idx := v.collector.Index()
	v.threadMu.Lock()
	loads := v.retired.loads
	allocs := v.retired.allocs
	barrierHits := v.retired.barrierHits
	for t := range v.threads {
		loads += t.loads
		allocs += t.allocs
		barrierHits += t.barrierHits
	}
	v.threadMu.Unlock()
	v.startTheWorld()
	return Stats{
		Collections:   idx,
		GCTime:        time.Duration(v.gcTimeNanos.Load()),
		Loads:         loads,
		BarrierHits:   barrierHits,
		PoisonTraps:   v.poisonTraps.Load(),
		Allocations:   allocs,
		PrunedRefs:    pruned,
		FinalizersRun: v.finalizersN.Load(),

		FinalizerPanics:      v.finalizerPanics.Load(),
		PrunedEdgeOverflows:  v.prunedOverflows.Load(),
		EdgeTableOverflows:   v.ctrl.Edges().Overflows(),
		DegradedTraces:       v.collector.DegradedTraces(),
		RecoveredTracePanics: v.collector.RecoveredPanics(),
		WatchdogAborts:       v.collector.WatchdogAborts(),
		FreeListRepairs:      v.heap.FreeListRepairs(),
		AuditsRun:            v.auditsRun.Load(),
		AuditViolations:      v.auditViolations.Load(),
	}
}

// LastAudit returns a copy of the most recent invariant-audit report (nil
// when no audit has run; empty when the last audit was clean).
func (v *VM) LastAudit() []string {
	v.auditMu.Lock()
	defer v.auditMu.Unlock()
	if v.lastAudit == nil {
		return nil
	}
	return append([]string{}, v.lastAudit...)
}

// FirstFailedAudit returns a copy of the first invariant-audit report that
// found a violation (nil while every audit has been clean). After a
// failure, later audits may be clean again, so LastAudit alone can hide
// what broke.
func (v *VM) FirstFailedAudit() []string {
	v.auditMu.Lock()
	defer v.auditMu.Unlock()
	return slices.Clone(v.firstBadAudit)
}

// LastTracePanic returns the most recent recovered trace-worker panic
// message ("" if none).
func (v *VM) LastTracePanic() string { return v.collector.LastTracePanic() }

// LastFinalizerPanic returns the most recent recovered finalizer panic
// message ("" if none).
func (v *VM) LastFinalizerPanic() string {
	if s := v.lastFinalizerPanic.Load(); s != nil {
		return s.(string)
	}
	return ""
}

// Global root table geometry: 64 spine entries of 1024 slots each.
const (
	globalChunkShift = 10
	globalChunkLen   = 1 << globalChunkShift
	globalSpineLen   = 64
)

// globalChunk is one fixed block of global root slots. Slots are only
// accessed with atomic loads/stores, and a chunk, once installed in the
// spine, is never replaced.
type globalChunk [globalChunkLen]uint64

// globalSlot returns the address of global g. Callers must have
// bounds-checked g against globalCount, which is published only after the
// containing chunk is installed.
func (v *VM) globalSlot(g int) *uint64 {
	return &v.globalSpine[g>>globalChunkShift].Load()[g&(globalChunkLen-1)]
}

// AddGlobal adds a global (static) root slot and returns its index.
func (v *VM) AddGlobal() int {
	v.lockOutSTW()
	defer v.unlockOutSTW()
	v.globalMu.Lock()
	defer v.globalMu.Unlock()
	idx := int(v.globalCount.Load())
	ci := idx >> globalChunkShift
	if ci >= globalSpineLen {
		panic(fmt.Sprintf("vm: global table full (%d slots)", globalSpineLen*globalChunkLen))
	}
	if v.globalSpine[ci].Load() == nil {
		v.globalSpine[ci].Store(new(globalChunk))
	}
	v.globalCount.Store(int64(idx + 1)) // publish after the chunk exists
	v.recorder.AddGlobal(idx)
	return idx
}

// SetFinalizer registers fn to run when the object behind r is collected —
// whether by regular collection or because leak pruning reclaimed it. Our
// implementation keeps calling finalizers after pruning starts, the
// paper's default choice (§2). fn runs during the collection and must not
// touch the VM.
func (v *VM) SetFinalizer(r heap.Ref, fn func(FinalizerInfo)) {
	if r.IsNull() {
		panic("vm: SetFinalizer on null reference")
	}
	v.lockOutSTW()
	defer v.unlockOutSTW()
	v.finalMu.Lock()
	defer v.finalMu.Unlock()
	if fn == nil {
		delete(v.finalizers, r.ID())
	} else {
		v.finalizers[r.ID()] = fn
	}
	v.finalizerCount.Store(int64(len(v.finalizers)))
}

// Collect forces one full-heap collection. Must not be called from inside a
// mutator critical region (i.e. not from a finalizer, a GC callback or a
// Thread.Region body); calling it between operations on a live Thread is
// fine. In STW mark mode
// the whole cycle runs inside one stop-the-world pause; under
// Options.MarkMode == MarkConcurrent a ModeNormal cycle marks and sweeps
// concurrently with mutators (concurrent.go), and Collect returns when the
// cycle has fully finished.
func (v *VM) Collect() gc.Result {
	v.cycleMu.Lock()
	defer v.cycleMu.Unlock()
	if v.opts.MarkMode == MarkConcurrent {
		return v.collectConcurrent()
	}
	v.stopTheWorld()
	defer v.startTheWorld()
	return v.collectLocked()
}

// rootVisitor adapts the VM's threads and globals to gc.RootVisitor.
type rootVisitor VM

// VisitRoots walks every thread frame slot and every global.
func (rv *rootVisitor) VisitRoots(fn func(heap.Ref)) {
	v := (*VM)(rv)
	v.threadMu.Lock()
	threads := make([]*Thread, 0, len(v.threads))
	for t := range v.threads {
		threads = append(threads, t)
	}
	v.threadMu.Unlock()
	for _, t := range threads {
		t.visitRoots(fn)
	}
	// Lock-free by construction: the count was published after its chunk,
	// and AddGlobal holds the STW owner lock, so no slot can appear while
	// a collection is scanning roots.
	n := int(v.globalCount.Load())
	for i := 0; i < n; i++ {
		fn(heap.Ref(atomic.LoadUint64(v.globalSlot(i))))
	}
}

// softTrigger computes the next collection threshold from the live bytes
// after a collection: a quarter of the remaining headroom (at least 1/32 of
// the heap), so collections ramp up in frequency as the heap fills — the
// paper's "allocations trigger more and more collections as memory fills
// the heap" (§3.1).
func softTrigger(live, limit uint64) uint64 {
	step := (limit - live) / 4
	if min := limit / 32; step < min {
		step = min
	}
	t := live + step
	if t > limit {
		t = limit
	}
	return t
}

// maybeCollect runs a collection if used bytes crossed the soft trigger.
// When a cycle is already in flight (a concurrent mark on another thread,
// or another thread won the race to start one) the trigger is simply
// dropped: that cycle's sweep is about to recompute the trigger anyway, and
// a thread that genuinely cannot allocate takes the blocking slow path
// (allocSlow) instead.
func (v *VM) maybeCollect() {
	if v.gcActive.Load() || !v.cycleMu.TryLock() {
		return
	}
	defer v.cycleMu.Unlock()
	if v.opts.MarkMode == MarkConcurrent {
		if v.heap.BytesUsed() > v.gcTrigger.Load() {
			v.collectConcurrent()
		}
		return
	}
	v.stopTheWorld()
	defer v.startTheWorld()
	if v.heap.BytesUsed() > v.gcTrigger.Load() {
		v.collectLocked()
	}
}

// flushTLABs returns every thread's unused slots, pending allocation counts
// and unused byte reservation to the heap, making the heap's free lists,
// Stats and BytesUsed exact for the collection about to run. Caller has
// stopped the world, so no context is in use.
func (v *VM) flushTLABs() { v.heap.ReleaseContexts(v.allocContexts()) }

// flushRuns is flushTLABs without the byte reservations, for a concurrent
// cycle's closing pause: the closing bookkeeping needs the counts and slots
// mutators took during the mark and the sweep back in the heap. It must not
// release the quotas — that would move BytesUsed, and with it the next soft
// trigger, off where the mutators left it, and shift every later cycle (and
// every simulated count on a concurrent-mark run).
func (v *VM) flushRuns() { v.heap.SettleContexts(v.allocContexts()) }

// allocContexts lists every live thread's allocation context.
func (v *VM) allocContexts() []*heap.AllocContext {
	v.threadMu.Lock()
	defer v.threadMu.Unlock()
	cs := make([]*heap.AllocContext, 0, len(v.threads))
	for t := range v.threads {
		cs = append(cs, &t.alloc)
	}
	return cs
}

// collectLocked runs one fully-STW collection cycle. Caller has stopped the
// world (and, on every path except the offload baseline's fault-in, holds
// cycleMu — fault-in cannot take it because it already holds the pause, and
// the offload baseline excludes concurrent marking by construction).
func (v *VM) collectLocked() gc.Result {
	pauseStart := time.Now()
	plan := v.preparePlan()
	res := v.collector.Collect(plan)
	return v.finishCollect(res, nil, pauseStart)
}

// preparePlan readies the heap and controller for a collection cycle and
// returns the cycle plan. Caller has stopped the world.
func (v *VM) preparePlan() gc.Plan {
	v.flushTLABs()
	// The world is stopped: no thread is inside a critical region, so every
	// allocation-trace stream is safe to drain (nil-safe no-op when
	// recording is off).
	v.recorder.DrainAll()
	plan := v.ctrl.PlanCycle()
	// Stale counters measure program time, not collector invocations: a
	// collection that ran with no allocation since the previous one (a
	// back-to-back cycle inside the allocation slow path) conveys no new
	// information about the program, so it does not age the counters.
	// Without this, exhaustion-time collection bursts would age even
	// constantly-used objects into pruning candidacy.
	allocNow := v.heap.Stats().BytesAlloc
	if plan.AgeStaleness && allocNow == v.lastGCAlloc {
		plan.AgeStaleness = false
	}
	v.lastGCAlloc = allocNow
	plan.OnFree = v.onFreeHook()
	if plan.Mode == gc.ModePrune {
		// Record each poisoned slot's target class so a later trap can
		// name the pruned edge type precisely.
		prev := plan.OnPrune
		plan.OnPrune = func(srcID heap.ObjectID, slot int, src, tgt heap.ClassID) {
			v.recordPrunedEdge(srcID, slot, tgt)
			if prev != nil {
				prev(srcID, slot, src, tgt)
			}
		}
	}
	return plan
}

// finishCollect runs the post-collection bookkeeping inside the cycle's
// final stop-the-world pause: offload, logging, triggers, the controller
// transition, the optional audit, and the OnGC event. priorPauses carries
// the earlier pauses of a concurrent cycle (nil for STW cycles); the
// current pause, measured from pauseStart, is appended as the last entry.
func (v *VM) finishCollect(res gc.Result, priorPauses []time.Duration, pauseStart time.Time) gc.Result {
	var offloaded uint64
	if v.offloader != nil {
		offloaded = v.offloader.AfterGC(v.heap)
	}
	v.lastOffloaded = offloaded
	v.logFullGC(res, offloaded)
	v.gcTimeNanos.Add(int64(res.Duration))
	hs := v.heap.Stats()
	v.gcTrigger.Store(softTrigger(hs.BytesUsed, hs.Limit))
	v.ctrl.FinishCycle(res, hs)
	if v.opts.AuditEveryGC {
		// Audit inside the cycle's closing stop-the-world pause, before the
		// next cycle clears the mark bitmap, so the mark check is exact.
		v.verifyLocked(v.collector.Swept())
	}
	if v.opts.EnableBarriers && v.mode&^opsOutOfLine == barriersOff && v.ctrl.Observing() {
		// The "recompilation" moment: from now on every load runs the
		// barrier test. OBSERVE is permanent, so this never reverts.
		v.mode |= v.opts.barrierShape()
	}
	pauses := append(priorPauses, time.Since(pauseStart))
	mode := res.Mode
	if int(mode) >= len(v.obsPauseNs) {
		mode = gc.ModeNormal
	}
	for _, p := range pauses {
		v.obsPauseNs[mode].Observe(uint64(p.Nanoseconds()))
		if ns := p.Nanoseconds(); ns > v.maxPauseNs[mode].Load() {
			v.maxPauseNs[mode].Store(ns)
		}
	}
	var liveHash uint64
	if v.opts.HashLiveSet {
		liveHash = liveSetHash(v.heap)
	}
	v.recorder.GCCycle(trace.GCInfo{
		Index:      res.Index,
		Mode:       uint8(res.Mode),
		State:      uint8(v.ctrl.State()),
		BytesLive:  hs.BytesUsed,
		Candidates: res.Candidates,
		Pruned:     res.PrunedRefs,
		Degraded:   res.Degraded,
		LiveHash:   liveHash,
	})
	if v.opts.OnGC != nil {
		v.opts.OnGC(Event{Result: res, Heap: hs, State: v.ctrl.State(), Pauses: pauses, LiveHash: liveHash})
	}
	return res
}

// MaxPausesByMode returns the longest stop-the-world pause observed so far
// for each cycle mode ("normal", "select", "prune"), in nanoseconds. Modes
// that have not run yet report 0. The daemon's /pressure endpoint exposes
// this per tenant so operators can verify SELECT/PRUNE pauses stay in the
// microsecond range under concurrent marking.
func (v *VM) MaxPausesByMode() map[string]int64 {
	out := make(map[string]int64, 3)
	for m := gc.ModeNormal; m <= gc.ModePrune; m++ {
		out[m.String()] = v.maxPauseNs[m].Load()
	}
	return out
}

// SetNearlyFullFraction tightens (or relaxes) the pruning controller's
// OBSERVE → SELECT threshold at runtime without restarting the VM — the
// first rung of a multi-tenant host's budget-pressure degradation ladder:
// lowering the threshold makes SELECT/PRUNE cycles engage at lower heap
// fullness, trading prune aggressiveness for budget headroom. Returns a
// typed *OptionError for values outside (0, 1).
func (v *VM) SetNearlyFullFraction(f float64) error {
	if !v.ctrl.SetNearlyFullFraction(f) {
		return &OptionError{Option: "NearlyFullFraction",
			Reason: fmt.Sprintf("must be in (0, 1), got %g", f)}
	}
	return nil
}

// NearlyFullFraction returns the controller's live OBSERVE → SELECT
// threshold (the configured value unless SetNearlyFullFraction changed it).
func (v *VM) NearlyFullFraction() float64 { return v.ctrl.NearlyFullFraction() }

// logFullGC writes one verbose-GC line for a full-heap collection.
func (v *VM) logFullGC(res gc.Result, offloaded uint64) {
	if v.opts.GCLog == nil {
		return
	}
	hs := v.heap.Stats()
	fmt.Fprintf(v.opts.GCLog,
		"[gc %d %s] live %s/%s (%.0f%%) freed %s in %v; state %s",
		res.Index, res.Mode, fmtBytes(hs.BytesUsed), fmtBytes(hs.Limit),
		hs.Fullness()*100, fmtBytes(res.BytesFreed), res.Duration.Round(time.Microsecond),
		v.ctrl.State())
	if res.Mode == gc.ModeSelect {
		fmt.Fprintf(v.opts.GCLog, "; candidates %d (%s stale)", res.Candidates, fmtBytes(res.StaleBytes))
	}
	if res.Mode == gc.ModePrune {
		fmt.Fprintf(v.opts.GCLog, "; pruned %d refs", res.PrunedRefs)
	}
	if offloaded > 0 {
		fmt.Fprintf(v.opts.GCLog, "; offloaded %s (disk %s/%s)",
			fmtBytes(offloaded), fmtBytes(v.heap.Disk().BytesUsed), fmtBytes(v.heap.Disk().Limit))
	}
	fmt.Fprintln(v.opts.GCLog)
}

// fmtBytes renders byte counts with a binary-unit suffix.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// onFreeHook returns the callback the sweep runs for every object it frees,
// or nil when it would do nothing — no finalizer registered, no trace being
// recorded — so the collector neither records nor calls per freed object.
// Deciding once, inside the cycle's first pause, is sound for concurrent
// cycles too: what a cycle frees was unreachable at its snapshot, so no
// mutator holds a reference to register a finalizer on it later.
func (v *VM) onFreeHook() func(heap.ObjectID, heap.ClassID, uint64) {
	if v.recorder == nil && v.finalizerCount.Load() == 0 {
		return nil
	}
	return v.runFinalizer
}

func (v *VM) runFinalizer(id heap.ObjectID, class heap.ClassID, size uint64) {
	v.recorder.Free(uint64(id))
	v.finalMu.Lock()
	fn, ok := v.finalizers[id]
	if ok {
		delete(v.finalizers, id)
		v.finalizerCount.Store(int64(len(v.finalizers)))
	}
	v.finalMu.Unlock()
	if ok {
		v.finalizersN.Add(1)
		v.safeFinalize(fn, FinalizerInfo{Class: v.classes.Name(class), Size: size})
	}
}

// safeFinalize runs one finalizer with panic isolation: finalizers execute
// inside the collection's stop-the-world section, so a panicking finalizer
// must not abort the collection or prevent the remaining finalizers from
// running. The recovery is per-finalizer and counted; the FinalizerPanic
// injection point stands in for a user finalizer that panics.
func (v *VM) safeFinalize(fn func(FinalizerInfo), info FinalizerInfo) {
	defer func() {
		if r := recover(); r != nil {
			v.finalizerPanics.Add(1)
			v.lastFinalizerPanic.Store(fmt.Sprint(r))
		}
	}()
	if v.inj.Should(faultinject.FinalizerPanic) {
		panic(fmt.Sprintf("faultinject: finalizer panic for class %s", info.Class))
	}
	fn(info)
}

// maxFruitlessCycles is how many consecutive no-progress collections the
// allocation slow path tolerates before treating memory as exhausted. A
// collection makes progress when it frees bytes, poisons references, or
// advances the pruning state machine; a few fruitless SELECT cycles must be
// tolerated because objects need time (collections) to become stale (§2).
const maxFruitlessCycles = 4

// absoluteGCBound is a backstop against a pathological select/prune
// livelock; real programs either make progress or go fruitless quickly.
const absoluteGCBound = 64

// allocSlow is the allocation slow path: collect (possibly several times,
// letting the pruning state machine advance through SELECT and PRUNE) and
// retry; when no further collection can help, record and throw the
// out-of-memory error (§2, §3.1).
func (v *VM) allocSlow(t *Thread, class heap.ClassID, opts []heap.AllocOption, size uint64) heap.Ref {
	// The slow path runs fully STW in both mark modes: exhaustion-time
	// collections must advance the pruning state machine deterministically
	// (§3.1), and a mutator that cannot allocate has nothing to overlap the
	// mark with anyway. Taking cycleMu first means waiting out any in-flight
	// concurrent cycle — whose sweep may well free the needed memory.
	v.cycleMu.Lock()
	defer v.cycleMu.Unlock()
	v.stopTheWorld()
	defer v.startTheWorld()

	fruitless := 0
	prevState := v.ctrl.State()
	for i := 0; i < absoluteGCBound; i++ {
		if ref, err := v.heap.AllocateCtx(&t.alloc, class, opts...); err == nil {
			return t.bornInPause(class, opts, ref)
		}
		res := v.collectLocked()
		if ref, err := v.heap.AllocateCtx(&t.alloc, class, opts...); err == nil {
			return t.bornInPause(class, opts, ref)
		}
		progressed := res.BytesFreed > 0 || res.PrunedRefs > 0 || v.lastOffloaded > 0 || v.ctrl.State() != prevState
		prevState = v.ctrl.State()
		if progressed {
			fruitless = 0
		} else {
			fruitless++
		}
		if fruitless >= maxFruitlessCycles {
			// The program has exhausted memory. Record the deferred OOM;
			// the controller returns true when exhaustion itself unlocks a
			// prune (a pending selection under FullHeapOnly, §3.1 option 1).
			if v.ctrl.NotifyExhaustion(v.heap.Stats(), size, v.collector.Index()) {
				fruitless = 0
				continue
			}
			break
		}
		if v.ctrl.WillPruneNext() || v.ctrl.InSelect() {
			continue // the state machine is still advancing toward a prune
		}
		if v.ctrl.NotifyExhaustion(v.heap.Stats(), size, v.collector.Index()) {
			continue
		}
		break
	}
	// Record the exhausting allocation before throwing: the replayer
	// re-attempts it so a replay under the recorded policy reproduces the
	// OOM tail (the fruitless collections above happened as a consequence
	// of this one op), while a policy that prunes more simply satisfies it.
	t.recordAllocFail(class, opts)
	oom := v.ctrl.MakeOOM(v.heap.Stats(), size, v.collector.Index())
	vmerrors.Throw(oom)
	panic("unreachable")
}

// bornInPause finishes a birth allocSlow made with the world stopped: it
// records and roots the object and publishes the birth while this thread
// still holds the pause, since once the world restarts another stopper may
// fold the context.
func (t *Thread) bornInPause(class heap.ClassID, opts []heap.AllocOption, ref heap.Ref) heap.Ref {
	t.recordAlloc(class, opts, ref)
	t.alloc.Publish()
	return t.root(ref)
}

// recordPrunedEdge remembers the target class of a poisoned slot. Past the
// diagnostic cap the record is dropped — a later trap on that slot reports
// the generic "<pruned>" target — and the drop is counted, so massive
// prunes degrade observably instead of silently.
func (v *VM) recordPrunedEdge(src heap.ObjectID, slot int, tgt heap.ClassID) {
	v.prunedMu.Lock()
	key := prunedEdgeKey{src, slot}
	if _, exists := v.prunedEdges[key]; exists || len(v.prunedEdges) < v.prunedEdgeCap {
		v.prunedEdges[key] = tgt
		v.prunedMu.Unlock()
		return
	}
	v.prunedMu.Unlock()
	v.prunedOverflows.Add(1)
}

func (v *VM) prunedEdgeClass(src heap.ObjectID, slot int) (heap.ClassID, bool) {
	v.prunedMu.Lock()
	defer v.prunedMu.Unlock()
	c, ok := v.prunedEdges[prunedEdgeKey{src, slot}]
	return c, ok
}

// throwPoisonTrap raises the InternalError for an access to a poisoned
// reference, with the averted OutOfMemoryError as its cause (§4.4).
func (v *VM) throwPoisonTrap(srcClass heap.ClassID, srcID heap.ObjectID, slot int) {
	v.poisonTraps.Add(1)
	v.obsPoisonTraps.Inc()
	tgtName := "<pruned>"
	if tgt, ok := v.prunedEdgeClass(srcID, slot); ok {
		tgtName = v.classes.Name(tgt)
	}
	err := &vmerrors.InternalError{
		Cause:       v.ctrl.AvertedOOM(),
		SourceClass: v.classes.Name(srcClass),
		TargetClass: tgtName,
	}
	vmerrors.Throw(err)
}

// Disk returns the simulated-disk accounting (zero unless the offload
// baseline is enabled).
func (v *VM) Disk() heap.DiskStats { return v.heap.Disk() }

// OffloadStats returns the offload controller's counters (zero value unless
// the baseline is enabled).
func (v *VM) OffloadStats() offload.Stats {
	if v.offloader == nil {
		return offload.Stats{}
	}
	v.lockOutSTW()
	defer v.unlockOutSTW()
	return v.offloader.Stats()
}

// faultIn brings an offloaded object back into the heap, collecting (and
// offloading other stale objects) to make room if needed. The calling
// thread must be OUTSIDE its critical region (faultIn may stop the world).
// Throws OutOfMemoryError when no room can be made, or OffloadError when
// the simulated disk read keeps failing after retries (a read has no
// fallback: the object's bytes exist only on disk).
func (v *VM) faultIn(t *Thread, id heap.ObjectID) {
	attempts, ok := v.offloader.PrepareFaultIn()
	if !ok {
		vmerrors.Throw(&vmerrors.OffloadError{Op: "read", ObjectID: uint64(id), Attempts: attempts})
	}
	if err := v.heap.FaultIn(id); err == nil {
		// The caller has the object rooted, so it stays allocated without a
		// critical region; RecordFault is atomic.
		if obj, ok := v.heap.Lookup(id); ok {
			v.offloader.RecordFault(obj.Size())
		}
		t.traceInstant("offload.faultin", "offload", obs.A("object", int64(id)), obs.A("attempts", int64(attempts)))
		return
	}
	v.stopTheWorld()
	defer v.startTheWorld()
	fruitless := 0
	for i := 0; i < absoluteGCBound; i++ {
		if err := v.heap.FaultIn(id); err == nil {
			if obj, ok := v.heap.Lookup(id); ok {
				v.offloader.RecordFault(obj.Size())
			}
			return
		}
		res := v.collectLocked()
		if res.BytesFreed > 0 || v.lastOffloaded > 0 {
			fruitless = 0
		} else {
			fruitless++
		}
		if fruitless >= maxFruitlessCycles {
			break
		}
	}
	obj, _ := v.heap.Lookup(id)
	size := uint64(0)
	if obj != nil {
		size = obj.Size()
	}
	oom := v.ctrl.MakeOOM(v.heap.Stats(), size, v.collector.Index())
	vmerrors.Throw(oom)
}

// String summarizes the VM configuration.
func (v *VM) String() string {
	policy := "off"
	if v.opts.Policy != nil {
		policy = v.opts.Policy.Name()
	}
	if v.offloader != nil {
		policy = fmt.Sprintf("offload(disk=%dMB)", v.opts.OffloadDisk>>20)
	}
	return fmt.Sprintf("vm(heap=%dMB, pruning=%s, barriers=%v/%v, gcWorkers=%d)",
		v.opts.HeapLimit>>20, policy, v.opts.EnableBarriers, v.opts.Barrier, v.collector.Workers())
}

// ClassUsage is one row of a heap composition histogram.
type ClassUsage struct {
	Class   string
	Objects uint64
	Bytes   uint64
}

// HeapHistogram returns the live-heap composition by class, largest first —
// the raw material for the paper's §3.2 diagnostic reports. It stops the
// world for the duration of the scan.
func (v *VM) HeapHistogram() []ClassUsage {
	v.stopTheWorld()
	defer v.startTheWorld()
	type agg struct {
		objects, bytes uint64
	}
	byClass := map[heap.ClassID]*agg{}
	v.heap.ForEach(func(id heap.ObjectID, obj *heap.Object) {
		a := byClass[obj.Class()]
		if a == nil {
			a = &agg{}
			byClass[obj.Class()] = a
		}
		a.objects++
		a.bytes += obj.Size()
	})
	out := make([]ClassUsage, 0, len(byClass))
	for cls, a := range byClass {
		out = append(out, ClassUsage{Class: v.classes.Name(cls), Objects: a.objects, Bytes: a.bytes})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Class < out[j].Class
	})
	return out
}
