package vm

import (
	"fmt"
	"sync/atomic"

	"leakpruning/internal/heap"
	"leakpruning/internal/obs"
	"leakpruning/internal/trace"
	"leakpruning/internal/vmerrors"
)

// Thread is one mutator context: a stack of frames whose slots are GC
// roots. A Thread is not a goroutine — it is the root structure a goroutine
// mutates through. Each Thread must be used by at most one goroutine at a
// time; distinct Threads may run concurrently.
//
// Mutator operations run inside a critical region (see beginOp in
// world.go): two uncontended atomic stores on the thread's own state word
// per operation, or, inside Region, two per region and a stop-flag load per
// operation (BenchmarkMutatorOps op=region beside op=load/store/new and their
// -region rows) — so distinct threads never serialize on a shared lock;
// collections stop the world by waiting for every thread to reach a
// safepoint. Everything else the thread owns between safepoints (frames,
// alloc, satbOn, the operation counters, rec) is plain memory the
// state word orders: the owner touches it only inside critical regions,
// anyone else only with the world stopped.
type Thread struct {
	vm     *VM
	name   string
	frames []*Frame
	// top is the innermost frame (nil when none is pushed), kept by
	// PushFrame and PopFrame so root appends without indexing frames.
	top    *Frame
	exited bool
	// held is true while the thread runs a Region body: its state word stays
	// running across operations, which only poll the stop flag. Owner-only.
	held bool
	// state is the safepoint state word (threadSafe / threadRunning),
	// published with sequentially consistent atomics against the world's
	// stop flag; stop is that flag (&vm.world.stop), held here so beginOp
	// reaches it in one load and stays inside the inliner's budget.
	state atomic.Uint32
	stop  *uint32
	// alloc is the thread's allocation context: a byte quota reserved
	// against the heap limit and a private run of free object slots, so New
	// takes no lock and touches no shared counter except on refill — plus
	// the allocation counts not yet folded into the heap, which is why
	// HeapStats sums live threads' contexts. A birth counts in a plain word
	// of the context; the thread publishes it before every safe store of
	// its state word that follows a birth (a per-op New; a held thread's
	// suspend and beginOpSlow), so a thread at a safepoint has published
	// everything. The owner uses it only inside critical regions; the VM
	// releases it (slots, counts and quota back to the heap) with the world
	// stopped at every flush (flushTLABs), and Exit releases it for good.
	alloc heap.AllocContext
	// cache is this thread's view of the chunk table for its object
	// lookups (heap.GetCached).
	cache heap.ChunkCache
	// satbOn arms the SATB deletion barrier in Store while a concurrent mark
	// is in flight. Written by the collector only while the world is stopped
	// (plain bool, like the alloc context — the safepoint protocol orders it
	// against this thread's reads); satb is the thread-private log it feeds.
	satbOn bool
	satb   satbBuffer
	// pool recycles popped Frames and their backing arrays so Scope-heavy
	// iteration loops stop allocating (bounded by maxFramePool).
	pool []*Frame

	// Per-thread operation counters: plain words this thread increments
	// inside its critical regions, under the same discipline as alloc. Stats
	// reads them across live threads at a safepoint handshake and Exit folds
	// them into the VM's retired totals.
	loads       uint64
	allocs      uint64
	barrierHits uint64

	// tid is the thread's obs trace track, 0 until its first trace event
	// opens it (traceInstant). Owner-only, like cache.
	tid int64

	// rec is the thread's allocation-trace stream (nil when recording is
	// off): owner-only appends inside critical regions, drained by the
	// collector at stop-the-world (preparePlan), closed by Exit inside its
	// final critical region, so stream access never needs a lock.
	rec *trace.Stream
}

// maxFramePool bounds a thread's frame pool; deeper recursion than this
// just allocates as before.
const maxFramePool = 64

// Frame is one stack frame: a fixed number of reference slots that are GC
// roots while the frame is pushed, plus an implicit set of local references.
//
// Every reference returned to the mutator by New, Load, or LoadGlobal is
// recorded as a local of the innermost frame and stays a root until that
// frame pops — the analogue of the register and stack roots a real VM
// scans. This matters specifically for leak pruning: pruning reclaims
// *reachable* objects, so without register roots a reference held only in a
// Go variable could be freed out from under the mutator when the structure
// above it is poisoned. With locals rooted, the in-hand object stays live
// and only a later load through the poisoned heap slot traps, exactly as in
// the paper.
//
// Popped frames are recycled through a per-thread pool: a *Frame must not
// be retained or used after its frame has been popped.
type Frame struct {
	slots  []uint64
	locals []uint64
	// owner is the thread whose stack this frame lives on, so Set can
	// route a recorded write to the owning thread's trace stream. A frame
	// may be handed to another goroutine (Mckoi's request frames); the
	// slot store stays a plain atomic either way.
	owner *Thread
}

// NewThread registers a new mutator thread. Threads created this way stay
// registered (their stacks remain roots) until Exit is called — which is
// exactly how the Mckoi workload leaks thread stacks (§6).
func (v *VM) NewThread(name string) *Thread {
	t := &Thread{
		vm:    v,
		name:  name,
		stop:  &v.world.stop,
		alloc: v.heap.NewAllocContext(),
		rec:   v.recorder.NewStream(name),
	}
	v.threadMu.Lock()
	// A thread born while a concurrent mark is in flight starts with the
	// deletion barrier armed; sharing threadMu with armSATB/drainSATB makes
	// the handoff race-free.
	t.satbOn = v.satbArmed
	v.threads[t] = struct{}{}
	v.threadMu.Unlock()
	return t
}

// RunThread creates a thread, runs body on it in the calling goroutine,
// unregisters the thread, and converts any VM trap (OutOfMemoryError,
// InternalError) into the returned error. Non-VM panics propagate.
//
// The thread starts with a base frame so local references are always
// rooted; long-running loops should still bound root growth with Scope.
func (v *VM) RunThread(name string, body func(*Thread)) (err error) {
	t := v.NewThread(name)
	defer t.Exit()
	defer func() { err = vmerrors.Handle(recover(), err) }()
	t.PushFrame(0)
	defer t.PopFrame()
	body(t)
	return nil
}

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// VM returns the owning VM.
func (t *Thread) VM() *VM { return t.vm }

// Exit unregisters the thread; its stack stops being a root and its
// operation counters are folded into the VM's retired totals. Exit is
// idempotent.
func (t *Thread) Exit() {
	if t.exited {
		return
	}
	t.exited = true
	// Release the allocation context inside a critical region so it cannot
	// race a stop-the-world flush of the same context. The allocation-trace
	// stream is closed in the same region: after Exit, nothing references
	// it.
	t.beginOp()
	t.vm.heap.ReleaseContext(&t.alloc)
	// Hand any SATB entries this thread still buffers to the VM's overflow
	// list: after Exit the remark drain will not visit this thread, and a
	// logged deletion must never be lost (satb.go).
	t.satb.flush(t.vm.spillSATB)
	if t.rec != nil {
		t.rec.Close()
		t.rec = nil
	}
	t.endOp()
	t.vm.threadMu.Lock()
	t.vm.retired.loads += t.loads
	t.vm.retired.allocs += t.allocs
	t.vm.retired.barrierHits += t.barrierHits
	delete(t.vm.threads, t)
	t.vm.threadMu.Unlock()
}

// PushFrame pushes a frame with n reference slots and returns it.
func (t *Thread) PushFrame(n int) *Frame {
	f := t.takeFrame(n)
	t.beginOp()
	t.frames = append(t.frames, f)
	t.top = f
	if t.rec != nil {
		t.rec.Push(n)
	}
	t.endOp()
	return f
}

// takeFrame recycles a pooled frame or allocates a fresh one. It runs
// outside the critical region: the frame is invisible to the collector
// until PushFrame links it into t.frames.
func (t *Thread) takeFrame(n int) *Frame {
	if k := len(t.pool); k > 0 {
		f := t.pool[k-1]
		t.pool[k-1] = nil
		t.pool = t.pool[:k-1]
		if cap(f.slots) >= n {
			f.slots = f.slots[:n]
			for i := range f.slots {
				f.slots[i] = 0
			}
		} else {
			f.slots = make([]uint64, n)
		}
		f.locals = f.locals[:0]
		return f
	}
	return &Frame{slots: make([]uint64, n), owner: t}
}

// PopFrame pops the most recent frame and returns it to the pool.
func (t *Thread) PopFrame() {
	t.beginOp()
	n := len(t.frames)
	if n == 0 {
		t.endOp()
		panic("vm: PopFrame on empty stack")
	}
	f := t.frames[n-1]
	t.frames[n-1] = nil
	t.frames = t.frames[:n-1]
	t.top = nil
	if n > 1 {
		t.top = t.frames[n-2]
	}
	if t.rec != nil {
		t.rec.Pop()
	}
	t.endOp()
	if len(t.pool) < maxFramePool {
		t.pool = append(t.pool, f)
	}
}

// InFrame runs body with a fresh frame of n slots, popping it afterwards
// even if body traps.
func (t *Thread) InFrame(n int, body func(*Frame)) {
	f := t.PushFrame(n)
	defer t.PopFrame()
	body(f)
}

// Scope runs body with a fresh slotless frame, so the local references body
// accumulates (from New/Load) are released when it returns. Iteration
// harnesses wrap each unit of work in a Scope to bound root growth.
func (t *Thread) Scope(body func()) {
	t.PushFrame(0)
	defer t.PopFrame()
	body()
}

// Region runs body inside one critical region of t: the thread enters once,
// its operations inside body skip the two state-word stores and only poll
// the stop flag (parking there when a stop is pending), and it leaves when
// body returns or unwinds. A collection, fault-in or trap inside body
// suspends the region exactly where a per-op thread would be outside one,
// so the thread is at its safepoint across every block and every throw.
// A nested Region is a plain call of body.
//
// The contract: body may call only operations of t — Load, Store, New,
// NumRefs, ClassOf, SizeOf, the globals, frames, Scope, InFrame,
// MarkIteration — and must not block on anything else. In particular not
// Collect or Stats (they stop the world and would wait for t), AddGlobal or
// SetFinalizer (they take the lock a stopper holds while it waits for t),
// nor another Thread's operations (parked there, t could never reach its
// safepoint). A held thread is still stoppable because it polls; what it
// cannot do is stop polling.
func (t *Thread) Region(body func()) {
	if t.held {
		body()
		return
	}
	t.beginOp()
	t.held = true
	defer t.suspend()
	body()
}

// root records a reference as a local of the innermost frame. Must be
// called inside a critical region (so it cannot race with a collection's
// root scan).
func (t *Thread) root(r heap.Ref) heap.Ref {
	if r.IsNull() {
		return r
	}
	if f := t.top; f != nil {
		f.locals = append(f.locals, uint64(r.Untagged()))
	}
	return r
}

// Get reads a local slot. Local slots hold untagged references: tags only
// live on heap reference fields.
func (f *Frame) Get(i int) heap.Ref { return heap.Ref(atomic.LoadUint64(&f.slots[i])) }

// Set writes a local slot. When the owning thread's VM is recording, the
// write happens inside a critical region so the recorded event cannot race
// a stop-the-world drain; otherwise it stays a single atomic store.
func (f *Frame) Set(i int, r heap.Ref) {
	if t := f.owner; t != nil && t.rec != nil {
		t.recordFrameSet(f, i, r)
		return
	}
	atomic.StoreUint64(&f.slots[i], uint64(r.Untagged()))
}

// Len returns the frame's slot count.
func (f *Frame) Len() int { return len(f.slots) }

// visitRoots reports every live frame slot to the collector. The world is
// stopped, so the frame list is stable.
func (t *Thread) visitRoots(fn func(heap.Ref)) {
	for _, f := range t.frames {
		for i := range f.slots {
			fn(heap.Ref(atomic.LoadUint64(&f.slots[i])))
		}
		for _, l := range f.locals {
			fn(heap.Ref(l))
		}
	}
}

// resolveSlow is the out-of-line half of every object lookup an operation
// makes: the inline half is heap.GetCached and a nil test, and it lands here
// when that finds no object or the mode word says opsOutOfLine. It traps a
// null, dead or unallocated reference, and under the offload baseline it
// faults an offloaded object back in. It leaves the critical region only
// across the fault-in (which may itself stop the world) and always returns
// inside it — held again if it was held.
//
//go:noinline
func (t *Thread) resolveSlow(a heap.Ref) *heap.Object {
	v := t.vm
	for {
		obj := v.heap.GetCached(a, &t.cache)
		if obj == nil {
			t.trapDeadRef(a)
		}
		// Residency is checked inside the same critical region as the slot
		// access that follows.
		if v.offloader == nil || !obj.IsOffloaded() {
			return obj
		}
		held := t.suspend()
		v.faultIn(t, a.ID())
		if held {
			t.resume()
		} else {
			t.beginOp()
		}
	}
}

// loadSlow is Load's out-of-line path: it records the load on a recording
// thread, before anything can trap, so a poison-trapping load is the last
// event on its stream and replay reproduces the trap at the same op; then
// it resolves a through resolveSlow.
//
//go:noinline
func (t *Thread) loadSlow(a heap.Ref, slot int) *heap.Object {
	if t.rec != nil {
		t.rec.Load(uint64(a.ID()), slot)
	}
	return t.resolveSlow(a)
}

// storeSlow is Store's out-of-line path, as loadSlow is Load's.
//
//go:noinline
func (t *Thread) storeSlow(a heap.Ref, slot int, val heap.Ref) *heap.Object {
	if t.rec != nil {
		t.rec.Store(uint64(a.ID()), slot, uint64(val.ID()))
	}
	return t.resolveSlow(a)
}

// trapDeadRef leaves the critical region and reports a dereference of a
// null, dead, or unallocated reference — a runtime bug, reported with the
// same panics heap.Get raises.
//
//go:noinline
func (t *Thread) trapDeadRef(a heap.Ref) {
	t.suspend()
	if a.IsNull() {
		panic("heap: dereference of null reference")
	}
	panic(fmt.Sprintf("heap: dereference of dead or unallocated %v", a.Untagged()))
}

// trapBadSlot leaves the critical region and reports an out-of-range slot
// index.
//
//go:noinline
func (t *Thread) trapBadSlot(class heap.ClassID, n, slot int) {
	t.suspend()
	panic(fmt.Sprintf("vm: reference slot %d out of range for %s (%d slots)",
		slot, t.vm.classes.Name(class), n))
}

// New allocates an object of the given class, running the collector (and
// the pruning state machine) if the heap is full. It traps with
// OutOfMemoryError when memory is exhausted and pruning cannot help.
func (t *Thread) New(class heap.ClassID, opts ...heap.AllocOption) heap.Ref {
	v := t.vm
	t.beginOp()
	t.allocs++
	ref, err := v.heap.AllocateCtx(&t.alloc, class, opts...)
	if err == nil {
		t.root(ref)
		if t.rec != nil {
			t.recordAlloc(class, opts, ref)
		}
		if !t.held {
			// A per-op thread is at a safepoint between operations, so
			// it publishes the birth before endOp stores safe. A held
			// thread publishes when it leaves or parks (suspend,
			// beginOpSlow).
			t.alloc.Publish()
		}
		t.endOp()
		if v.heap.BytesUsed() > v.gcTrigger.Load() {
			t.collect()
		}
		return ref
	}
	held := t.suspend()
	refSlots, scalarBytes := v.classes.Shape(class)
	size := heap.ObjectSize(refSlots, scalarBytes) // upper-bound estimate for the OOM report
	ref = v.allocSlow(t, class, opts, size)
	if held {
		t.resume()
	}
	return ref
}

// collect is New's trigger path, kept out of line so New's fast path is the
// same whether or not the thread is held: a held thread leaves its region
// around the collection, which stops the world, and re-enters after it.
//
//go:noinline
func (t *Thread) collect() {
	v := t.vm
	if v.gcActive.Load() {
		return // a cycle is in flight: maybeCollect would drop the trigger anyway
	}
	held := t.suspend()
	v.maybeCollect()
	if held {
		t.resume()
	}
}

// Load reads reference slot `slot` of the object behind a, applying the
// read barrier (§4.1): if the collector tagged the reference since the last
// collection, the cold path clears the tag, resets the target's stale
// counter, and updates the edge table; if the reference is poisoned, the
// thread traps with an InternalError whose cause is the averted
// OutOfMemoryError (§4.4).
//
// A resident object on a VM that neither offloads nor records is resolved
// inline and the barrier shape is read off the mode word, so the fast path
// makes no call; every other case goes through loadSlow first. make
// bench-smoke disassembles Load and fails on a CALL to anything else.
func (t *Thread) Load(a heap.Ref, slot int) heap.Ref {
	v := t.vm
	t.beginOp()
	t.loads++
	mode := v.mode
	src := v.heap.GetCached(a, &t.cache)
	if src == nil || mode&opsOutOfLine != 0 {
		src = t.loadSlow(a, slot)
		// A fault-in may have run a collection that flipped LazyBarriers.
		mode = v.mode
	}
	if uint(slot) >= uint(src.NumRefs()) {
		t.trapBadSlot(src.Class(), src.NumRefs(), slot)
	}
	b := src.Ref(slot)
	switch mode &^ opsOutOfLine {
	case barriersConditional:
		// The paper's barrier: the fast path is a single test of the low bit
		// (poisoning sets it too), with the body out of line.
		if b&heap.TagStale != 0 {
			b = t.barrierColdPath(src, a.ID(), slot, b)
		}
	case barriersUnconditional:
		// The alternative shape (the "second platform" of Figure 6): it
		// always performs the mask, making the fast path straight-line work
		// before the tag test.
		tags := b.Tags()
		cleared := b.Untagged()
		if tags != 0 {
			cleared = t.barrierColdPath(src, a.ID(), slot, b)
		}
		b = cleared
	default:
		// Barriers compiled out (EnableBarriers false) or not yet
		// "recompiled in" (LazyBarriers while the controller is INACTIVE).
		// Locals are still rooted: rooting is part of the memory model,
		// not of the barrier, so overhead comparisons stay like for like.
		b = b.Untagged()
	}
	r := t.root(b)
	t.endOp()
	return r
}

// barrierColdPath implements the out-of-line barrier body from §4.1/§4.4.
// It runs inside the caller's critical region; the poison-trap path leaves
// the region (suspends it, when held) before unwinding.
//
//go:noinline
func (t *Thread) barrierColdPath(src *heap.Object, srcID heap.ObjectID, slot int, b heap.Ref) heap.Ref {
	v := t.vm
	if b.IsPoisoned() {
		srcClass := src.Class()
		t.suspend()
		t.traceInstant("poison.trap", "vm",
			obs.A("src_class", int64(srcClass)), obs.A("src", int64(srcID)), obs.A("slot", int64(slot)))
		v.throwPoisonTrap(srcClass, srcID, slot)
	}
	t.barrierHits++
	v.obsBarrierCold.Inc()
	old := b
	b = b.Untagged()
	// Store back atomically with respect to the read: if another thread
	// already overwrote the slot, its value is a valid serialization and
	// we can safely use the reference we loaded (§4.1).
	src.CompareAndSwapRef(slot, old, b)
	tgt := v.heap.GetCached(b, &t.cache)
	if tgt == nil {
		t.trapDeadRef(b)
	}
	if v.ctrl.Observing() {
		if s := v.heap.Stale(tgt); s > 1 {
			v.ctrl.Edges().RecordUse(src.Class(), tgt.Class(), s)
		}
	}
	v.heap.ClearStale(tgt)
	return b
}

// Store writes val into reference slot `slot` of the object behind a.
// Stored references are untagged (a reference in hand was necessarily
// loaded through the barrier or freshly allocated).
func (t *Thread) Store(a heap.Ref, slot int, val heap.Ref) {
	v := t.vm
	t.beginOp()
	src := v.heap.GetCached(a, &t.cache)
	if src == nil || v.mode&opsOutOfLine != 0 {
		src = t.storeSlow(a, slot, val)
	}
	if uint(slot) >= uint(src.NumRefs()) {
		t.trapBadSlot(src.Class(), src.NumRefs(), slot)
	}
	if t.satbOn {
		// SATB deletion barrier: the concurrent marker must be able to reach
		// everything that was reachable at the snapshot, so the reference
		// this store evicts is logged before the slot forgets it. SwapRef
		// makes the logged value exactly the evicted one — a separate
		// load-then-store pair could lose a racing thread's store unlogged.
		t.satbLog(src.SwapRef(slot, val.Untagged()))
	} else {
		src.SetRef(slot, val.Untagged())
	}
	t.endOp()
}

// NumRefs returns the number of reference slots of the object behind a.
func (t *Thread) NumRefs(a heap.Ref) int {
	v := t.vm
	t.beginOp()
	obj := v.heap.GetCached(a, &t.cache)
	if obj == nil || v.mode&opsOutOfLine != 0 {
		obj = t.resolveSlow(a)
	}
	n := obj.NumRefs()
	t.endOp()
	return n
}

// ClassOf returns the class name of the object behind a.
func (t *Thread) ClassOf(a heap.Ref) string {
	v := t.vm
	t.beginOp()
	obj := v.heap.GetCached(a, &t.cache)
	if obj == nil || v.mode&opsOutOfLine != 0 {
		obj = t.resolveSlow(a)
	}
	c := obj.Class()
	t.endOp()
	return v.classes.Name(c)
}

// SizeOf returns the simulated size of the object behind a.
func (t *Thread) SizeOf(a heap.Ref) uint64 {
	v := t.vm
	t.beginOp()
	obj := v.heap.GetCached(a, &t.cache)
	if obj == nil || v.mode&opsOutOfLine != 0 {
		obj = t.resolveSlow(a)
	}
	s := obj.Size()
	t.endOp()
	return s
}

// LoadGlobal reads a global root slot. Globals are roots, so they carry no
// tags and need no barrier (§4.1 instruments heap loads only).
func (t *Thread) LoadGlobal(g int) heap.Ref {
	v := t.vm
	t.beginOp()
	if int64(uint(g)) >= v.globalCount.Load() {
		t.trapBadGlobal(g)
	}
	if t.rec != nil {
		t.rec.LoadGlobal(g)
	}
	r := t.root(heap.Ref(atomic.LoadUint64(v.globalSlot(g))))
	t.endOp()
	return r
}

// StoreGlobal writes a global root slot.
func (t *Thread) StoreGlobal(g int, r heap.Ref) {
	v := t.vm
	t.beginOp()
	if int64(uint(g)) >= v.globalCount.Load() {
		t.trapBadGlobal(g)
	}
	if t.rec != nil {
		t.rec.StoreGlobal(g, uint64(r.ID()))
	}
	atomic.StoreUint64(v.globalSlot(g), uint64(r.Untagged()))
	t.endOp()
}

// trapBadGlobal leaves the critical region and reports an out-of-range
// global index.
//
//go:noinline
func (t *Thread) trapBadGlobal(g int) {
	t.suspend()
	panic(fmt.Sprintf("vm: global %d out of range (%d globals)", g, t.vm.globalCount.Load()))
}

// traceInstant emits an instant event on t's trace track, opening the track
// (tid and thread_name record) on the thread's first event; a no-op when
// tracing is off. It takes the tracer's sink mutex, which no holder keeps
// across a safepoint wait, so it is safe inside or outside a critical
// region.
func (t *Thread) traceInstant(name, cat string, args ...obs.Arg) {
	tr := t.vm.obsTracer
	if tr == nil {
		return
	}
	if t.tid == 0 {
		t.tid = tr.NewTrack(t.name)
	}
	tr.Emit(obs.Instant(name, cat, tr.Now(), t.tid, args...))
}
