package gc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/heap"
)

// deferredEdge is one reference the in-use closure deferred instead of
// tracing: in a SELECT cycle a candidate, the root of a stale data
// structure the stale closure sizes (§4.2); in a PRUNE cycle a reference to
// poison (§4.3). It names the edge type, the slot it was found in and the
// exact value the scan left there, whose untagged form is the target. A
// concurrent cycle's remark re-checks the slot against expect to detect a
// mutator that touched the edge (drift demotion); Remark then poisons the
// PRUNE edges serially. bytes is the stale closure's size for a SELECT
// edge.
type deferredEdge struct {
	src, tgt heap.ClassID
	srcID    heap.ObjectID
	slot     int
	expect   heap.Ref
	bytes    uint64
}

// staleEdge is one buffered StaleEdge observation: workers record these
// locally during the in-use closure and merge replays them serially, so
// the callback needs no locking.
type staleEdge struct {
	src, tgt heap.ClassID
	stale    uint8
	bytes    uint64
}

const (
	// batchSize is the number of object IDs moved between a worker's local
	// stack and its deque at a time.
	batchSize = 128
	// spillAt is the local stack depth beyond which a worker donates
	// batches to its deque so idle workers can steal them.
	spillAt = 4 * batchSize
)

// Abort causes, recorded when a parallel closure is cut short. The
// collector maps them to its degradation counters and re-runs the closure
// with the serial tracer.
const (
	abortNone uint32 = iota
	// abortPanic: a trace worker panicked (injected or real) and was
	// recovered at its goroutine boundary.
	abortPanic
	// abortWatchdog: the STW watchdog deadline fired before the parallel
	// closure terminated, or a trip was injected (in either mark mode).
	abortWatchdog
)

// tracer runs one transitive closure with work stealing, mirroring MMTk's
// parallel tracing (§4.5): workers keep local mark stacks and exchange
// batches through per-worker Chase–Lev deques. Parallelism follows the
// work. Worker 0 runs on the calling goroutine; a helper goroutine is
// launched only when a batch exists for it to take (one per root batch
// beyond the first, then one per spill), an idle worker parks on cond, and
// process joins every helper before it returns — so a closure that never
// spills is the serial tracer at any worker count.
//
// Claims: a worker claims an object by setting its bit in the heap's mark
// bitmap (heap.ChunkCache.Mark). While worker 0 is the only one running
// (launched == 1), nobody else writes the bitmap — mutators never do — so
// it claims with a load and a plain store, in a concurrent closure too; it
// switches to the CAS before it launches the first helper, whose go
// statement orders every plain store before the helper's first load, and
// helpers always CAS (DESIGN.md, "Work-stealing tracer").
// A claimed object with reference slots is scanned exactly once, by
// whichever worker pops it; that worker adds it to its live tallies (take),
// which are the cycle's live counts. A claimed leaf (no slots) is tallied
// by the worker that claims it and is never pushed, so leaves neither fill
// a mark stack toward spillAt nor cost a push, a pop and a second lookup.
//
// Termination: a worker parks only with its stack and deque empty, having
// failed to steal; idle and launched change under mu, and only a worker
// that is not idle (spill) or process itself launches. So idle == launched
// means no worker holds work, none can push or launch, and every deque is
// empty: the closure is complete, and stays so for each waker to see.
//
// The tracer itself is one small per-closure header; everything that grows
// (workers, rings, stacks, buffers) is the Collector's traceScratch. A
// fresh header per closure means a watchdog timer that fires late aborts a
// closure nobody is running.
type tracer struct {
	*traceScratch
	heap *heap.Heap
	plan Plan

	// clock is the stale clock the cycle reads counters on (it advances
	// only when the cycle finishes); needStale says whether the plan has a
	// callback that takes a counter, so a normal cycle never reads one.
	clock     *heap.Clock
	needStale bool

	// concurrent marks a closure of a mostly-concurrent cycle, which runs
	// while mutators are live: barrier tagging must CAS instead of
	// blind-store, because a plain SetRef could overwrite a reference a
	// mutator stored after the tracer loaded the slot, silently resurrecting
	// the old value.
	concurrent bool

	// defers is the plan's deferral predicate: Candidate in a SELECT cycle,
	// ShouldPrune in a PRUNE cycle, nil otherwise. sized counts the deferred
	// edges the stale closure has sized.
	defers func(src, tgt heap.ClassID, stale uint8) bool
	sized  int

	// workers is this closure's share of the scratch's pool; launched counts
	// those running (worker 0 included), idle those parked. Both are written
	// under mu and read without it by spill's fast path.
	workers  []traceWorker
	mu       sync.Mutex
	cond     sync.Cond // on mu: a batch was queued, the closure ended, or abort
	launched atomic.Int32
	idle     atomic.Int32
	helpers  sync.WaitGroup

	// aborted flips when the parallel closure must be abandoned (worker
	// panic or watchdog); workers poll it and drain out promptly. The
	// partial marks left behind are cleared before the serial re-run.
	aborted   atomic.Bool
	abortWhy  atomic.Uint32 // first abort cause wins (abortPanic/abortWatchdog)
	lastPanic atomic.Value  // string: the recovered panic, for diagnostics

	// inj injects worker faults; armed only when more than one worker is
	// configured (the serial fallback must be reliable, so it is never
	// injected).
	inj *faultinject.Injector
}

// traceScratch is the tracer's memory, owned by the Collector and reused
// across cycles: a steady-state closure allocates its header and the
// batches it deals or spills, nothing else.
type traceScratch struct {
	pool []traceWorker // one per configured worker; a closure uses a prefix

	// roots accumulates root IDs during the serial markRoot phase;
	// dealRoots queues them on worker 0's deque.
	roots []heap.ObjectID

	// deferred is gathered from the per-worker buffers: by Mark, and by
	// Remark for the edges its closures found.
	deferred []deferredEdge

	// launches counts helper goroutines started, over the collector's life
	// (the package's tests assert on it instead of on wall time).
	launches uint64
}

// traceWorker is one tracer worker's private state: its local mark stack,
// its chunk cache, its live tallies, the buffers merged serially once the
// closure finishes, and its deque. The deque's indices are what other
// workers read; the padding keeps them off the cache lines the owner writes
// on every mark-stack push, whatever the array's alignment.
type traceWorker struct {
	t     *tracer
	id    int
	local []heap.ObjectID
	cc    heap.ChunkCache
	// alone: no other worker can be marking (worker 0 only; see tracer).
	alone bool
	// scans counts the objects this worker has tallied (scanned, or
	// claimed as a leaf), bytesLive sums their sizes and minPos is the
	// lowest stale-clock position among them: every claimed object is
	// tallied exactly once, so their sums are the cycle's ObjectsLive,
	// BytesLive and MaxStale.
	scans     uint64
	bytesLive uint64
	minPos    uint32

	deferred   []deferredEdge
	staleEdges []staleEdge

	_     [64]byte
	deque wsDeque
	_     [64]byte
}

// newTracer readies the scratch for one closure over the first workers
// entries of its worker set and returns the closure's header. Worker 0
// starts alone.
func (s *traceScratch) newTracer(h *heap.Heap, plan Plan, workers int, concurrent bool) *tracer {
	t := &tracer{traceScratch: s, heap: h, plan: plan, workers: s.pool[:workers],
		clock:      h.Clock(),
		needStale:  plan.Candidate != nil || plan.ShouldPrune != nil || plan.StaleEdge != nil,
		concurrent: concurrent}
	switch plan.Mode {
	case ModeSelect:
		t.defers = plan.Candidate
	case ModePrune:
		t.defers = plan.ShouldPrune
	}
	t.cond.L = &t.mu
	s.roots, s.deferred = s.roots[:0], s.deferred[:0]
	for i := range t.workers {
		w := &t.workers[i]
		w.t, w.id, w.alone, w.scans = t, i, i == 0, 0
		w.local, w.deferred, w.staleEdges = w.local[:0], w.deferred[:0], w.staleEdges[:0]
		w.deque.reset() // an aborted closure leaves batches behind
		w.bytesLive, w.minPos = 0, math.MaxUint32
	}
	return t
}

// abort requests that every worker drain out, parked ones included; the
// first cause is kept.
func (t *tracer) abort(why uint32) {
	t.abortWhy.CompareAndSwap(abortNone, why)
	t.aborted.Store(true)
	t.mu.Lock()
	t.cond.Broadcast()
	t.mu.Unlock()
}

// recordPanic recovers one worker's panic: the closure is aborted and the
// panic value kept for diagnostics. This is the boundary that keeps an
// injected (or real) worker fault from escaping the VM API as a raw panic.
func (t *tracer) recordPanic(v any) {
	t.lastPanic.Store(fmt.Sprint(v))
	t.abort(abortPanic)
}

// markRoot claims a root-referenced object and queues it for tracing. Roots
// are never pruning candidates: candidates are heap edges keyed by their
// source class, and roots have none (§3.1's example shows candidates only
// on object-to-object references). markRoot runs serially, between
// closures, with every helper joined, so it claims as worker 0.
func (t *tracer) markRoot(r heap.Ref) {
	w := &t.workers[0]
	if t.heap.GetCached(r, &w.cc) == nil {
		dangling(r)
	}
	if w.claim(r.ID()) {
		t.roots = append(t.roots, r.ID())
	}
}

// markRoots claims every non-null root the visitor reports.
func (t *tracer) markRoots(rv RootVisitor) {
	rv.VisitRoots(func(r heap.Ref) {
		if !r.IsNull() {
			t.markRoot(r.Untagged())
		}
	})
}

// dealRoots queues the accumulated root IDs on worker 0's deque in batches
// — at any worker count, so a closure no helper joins visits objects in
// the serial tracer's order — and empties t.roots, so markRoot can refill
// it for a later remark pass.
func (t *tracer) dealRoots() {
	for roots := t.roots; len(roots) > 0; {
		bn := min(batchSize, len(roots))
		t.workers[0].deque.push(&workBatch{ids: append([]heap.ObjectID(nil), roots[:bn]...)})
		roots = roots[bn:]
	}
	t.roots = t.roots[:0]
}

// process drives the dealt work to termination (or abort) and returns with
// every helper it or its workers launched joined, so it can be called again
// after a remark re-seed. recoverPanics wraps worker 0 with the panic
// recovery every helper has; the STW serial fallback passes false because
// it is the path of last resort — a panic there is a genuine runtime bug
// that must crash loudly.
func (t *tracer) process(recoverPanics bool) {
	t.idle.Store(0)
	t.launched.Store(1)
	// One helper per root batch beyond the one worker 0 is about to pop.
	t.mu.Lock()
	for want := min(t.workers[0].deque.size(), len(t.workers)); int(t.launched.Load()) < want; {
		t.launchLocked()
	}
	t.mu.Unlock()
	t.runWorker(&t.workers[0], recoverPanics)
	t.helpers.Wait()
	t.workers[0].alone = true // no helper runs until the next launch
}

// launchLocked starts the next unlaunched worker on its own goroutine.
// Caller holds t.mu and is not idle, so the termination test cannot pass
// between the count going up and the helper looking for work. Worker 0
// stops claiming alone first; while it is alone it is the only possible
// caller, so a helper launching another only reads the flag.
func (t *tracer) launchLocked() {
	if w0 := &t.workers[0]; w0.alone {
		w0.alone = false
	}
	w := &t.workers[t.launched.Add(1)-1]
	t.launches++
	t.helpers.Add(1)
	go func() {
		defer t.helpers.Done()
		t.runWorker(w, true)
	}()
}

func (t *tracer) runWorker(w *traceWorker, recoverPanics bool) {
	if recoverPanics {
		defer func() {
			if r := recover(); r != nil {
				t.recordPanic(r)
			}
		}()
	}
	w.run()
}

// gather moves the workers' deferred edges into t.deferred, in worker
// order, and empties their buffers.
func (t *tracer) gather() {
	for i := range t.workers {
		w := &t.workers[i]
		t.deferred = append(t.deferred, w.deferred...)
		w.deferred = w.deferred[:0]
	}
}

// merge gathers the deferred edges the closure found since Mark and
// replays the buffered StaleEdge observations serially. Call exactly once,
// on a closure that completed: an aborted one is re-run instead.
func (t *tracer) merge() {
	t.gather()
	for i := range t.workers {
		for _, e := range t.workers[i].staleEdges {
			t.plan.StaleEdge(e.src, e.tgt, e.stale, e.bytes)
		}
	}
}

// abortCheckMask throttles the abort-flag poll in the scan loop to one
// atomic load every 64 objects, keeping the hot path unpolluted while still
// bounding how much work a worker does after an abort.
const abortCheckMask = 63

// run is one worker's loop: drain the local stack, then the own deque,
// then steal — or detect termination (or an abort).
func (w *traceWorker) run() {
	t := w.t
	scanned := 0
	for {
		for len(w.local) > 0 {
			if scanned++; scanned&abortCheckMask == 0 && t.aborted.Load() {
				return
			}
			n := len(w.local) - 1
			id := w.local[n]
			w.local = w.local[:n]
			w.scan(id)
			for len(w.local) >= spillAt {
				w.spill()
			}
		}
		if t.aborted.Load() {
			return
		}
		if b := w.deque.pop(); b != nil {
			w.local = append(w.local, b.ids...)
			continue
		}
		if len(t.workers) == 1 || !w.acquire() {
			return
		}
	}
}

// spill donates the oldest batchSize entries of the local stack to the
// worker's own deque, where idle workers can steal them (§4.5's batch
// donation), and makes sure someone is awake to take it: a parked worker
// if there is one, else a new helper while any is left to launch. Donating
// the oldest entries hands thieves the shallow, high-fanout part of the
// graph.
func (w *traceWorker) spill() {
	batch := make([]heap.ObjectID, batchSize)
	copy(batch, w.local[:batchSize])
	w.local = append(w.local[:0], w.local[batchSize:]...)
	w.deque.push(&workBatch{ids: batch})

	// The push above and the parker's idle.Add are sequentially consistent
	// with the loads on the other side (here idle, there anyQueued): either
	// this worker sees the parker, or the parker sees the batch.
	t := w.t
	if t.idle.Load() == 0 && int(t.launched.Load()) == len(t.workers) {
		return
	}
	t.mu.Lock()
	if t.idle.Load() > 0 {
		t.cond.Signal()
	} else if int(t.launched.Load()) < len(t.workers) && !t.aborted.Load() {
		t.launchLocked()
	}
	t.mu.Unlock()
}

// acquire obtains work from another worker's deque, parking while there is
// none, or detects termination (see tracer). It returns false when the
// closure is complete or aborted.
func (w *traceWorker) acquire() bool {
	t := w.t
	n := len(t.workers)
	for {
		for i := 1; i < n; i++ {
			if b := t.workers[(w.id+i)%n].deque.steal(); b != nil {
				w.local = append(w.local, b.ids...)
				return true
			}
		}
		t.mu.Lock()
		t.idle.Add(1)
		for {
			// An abort ends the wait too: a panicked worker never parks, so
			// idle could not reach launched.
			if t.aborted.Load() || t.idle.Load() == t.launched.Load() {
				t.cond.Broadcast()
				t.mu.Unlock()
				return false
			}
			if t.anyQueued() {
				break // e.g. a steal lost a CAS race: rescan the deques
			}
			t.cond.Wait()
		}
		t.idle.Add(-1)
		t.mu.Unlock()
	}
}

// anyQueued reports whether any worker's deque still holds a batch.
func (t *tracer) anyQueued() bool {
	for i := range t.workers {
		if !t.workers[i].deque.empty() {
			return true
		}
	}
	return false
}

// applyStaleTag arms the read barrier on a scanned slot currently holding r
// and returns the value the slot is now expected to hold: the tagged
// reference when the tag landed, the original r when a concurrent CAS lost
// to a mutator. A concurrent tracer must CAS: a blind store could overwrite
// a reference a mutator installed after the tracer loaded r, resurrecting
// the old value. CAS failure just skips the tag — the mutator's new value
// stays untagged until the next cycle scans it, which only delays staleness
// detection. A deferred edge records the result as the
// drift-verification baseline — a lost CAS means the mutator already
// touched the slot, so verification will (correctly) see a mismatch and
// demote.
func (t *tracer) applyStaleTag(obj *heap.Object, slot int, r heap.Ref) heap.Ref {
	tagged := r.Untagged().WithStale()
	if t.concurrent {
		if obj.CompareAndSwapRef(slot, r, tagged) {
			return tagged
		}
		return r
	}
	obj.SetRef(slot, tagged)
	return tagged
}

// injectFault draws the per-object faults (parallel closures only — t.inj
// is nil for the serial fallback): a worker panic to exercise the recovery
// + serial-re-run path, or a watchdog trip to exercise the downgrade path
// without depending on wall-clock timing. It reports a trip, after which
// the worker stops tracing. Every claimed object is drawn for once: an
// object with slots when it is scanned, a leaf when it is claimed.
func (w *traceWorker) injectFault(id heap.ObjectID) bool {
	t := w.t
	if t.inj.Should(faultinject.TraceWorkerPanic) {
		panic(fmt.Sprintf("faultinject: trace worker %d panic at object %d", w.id, id))
	}
	if t.inj.Should(faultinject.TraceWatchdogTrip) {
		t.abort(abortWatchdog)
		return true
	}
	return false
}

// scan processes one marked object's reference slots: tagging, deferral of
// SELECT and PRUNE edges, and marking of children. A newly claimed child
// with slots is pushed on the worker's local stack; a leaf (no slots) has
// nothing to scan, so it is tallied where it is claimed and never pushed.
// StaleEdge observations and deferred edges go to the worker's private
// buffers instead of shared, locked state.
func (w *traceWorker) scan(id heap.ObjectID) {
	t := w.t
	if t.inj != nil && w.injectFault(id) {
		return
	}
	obj := t.heap.GetCached(heap.MakeRef(id), &w.cc)
	if obj == nil {
		return
	}
	w.take(obj)
	src := obj.Class()
	for slot, n := 0, obj.NumRefs(); slot < n; slot++ {
		r := obj.Ref(slot)
		if r.IsNull() {
			continue
		}
		// Poisoned references are never traced again (§4.3): future
		// collections see the poison bit and do not dereference.
		if r.IsPoisoned() {
			continue
		}
		tgt := t.heap.GetCached(r, &w.cc)
		if tgt == nil {
			dangling(r)
		}
		tgtClass := tgt.Class()
		var stale uint8
		if t.needStale {
			stale = t.clock.Stale(tgt.StalePos())
		}

		if t.plan.StaleEdge != nil && stale >= 2 {
			w.staleEdges = append(w.staleEdges, staleEdge{src: src, tgt: tgtClass, stale: stale, bytes: tgt.Size()})
		}

		if t.defers != nil && t.defers(src, tgtClass, stale) {
			// Defer the edge and do not trace past it: the stale closure
			// sizes a SELECT edge, Remark poisons a PRUNE edge. The slot is
			// stale-tagged (a PRUNE slot always), so a mutator load in a
			// concurrent cycle goes through the read barrier's cold path
			// and changes the slot value, which Remark's expect-compare
			// sees. Without the tag a mutator could copy a doomed
			// reference into a live object unobserved and the poison
			// would dangle.
			expect := r
			if (t.plan.TagRefs || t.plan.Mode == ModePrune) && !r.IsStaleTagged() {
				expect = t.applyStaleTag(obj, slot, r)
			}
			w.deferred = append(w.deferred, deferredEdge{src: src, tgt: tgtClass, srcID: id, slot: slot, expect: expect})
			continue
		}

		// Set the barrier tag, skipping the store when the bit is already
		// set (references stay tagged until the program uses them, so this
		// avoids re-dirtying most of the heap every collection).
		if t.plan.TagRefs && !r.IsStaleTagged() {
			t.applyStaleTag(obj, slot, r)
		}
		if w.claim(r.ID()) {
			if tgt.NumRefs() != 0 {
				w.local = append(w.local, r.ID())
				continue
			}
			if t.inj != nil && w.injectFault(r.ID()) {
				return
			}
			w.take(tgt)
		}
	}
}

// claim sets id's mark bit and reports whether this worker won the
// object: a load and a plain store while the worker traces alone, the CAS
// otherwise (see tracer). The worker's chunk cache covers id, just
// resolved through it. It inlines (make bench-smoke checks), so an edge
// pays no call for it.
func (w *traceWorker) claim(id heap.ObjectID) bool { return w.cc.Mark(id, w.alone) }

// take adds a claimed object to this worker's live tallies as the worker
// scans it, or, for a leaf, as it claims it, while the object's header is
// in cache, so the per-edge loop stays as lean as the claim.
func (w *traceWorker) take(obj *heap.Object) {
	w.scans++
	w.bytesLive += obj.Size()
	w.minPos = min(w.minPos, obj.StalePos())
}

// dangling reports a traced reference that resolved to no live object.
// Like heap.Get's panic it is a runtime bug: the closure only follows
// references out of live objects.
func dangling(r heap.Ref) {
	panic(fmt.Sprintf("gc: traced a dead or unallocated %v", r.Untagged()))
}

// staleClosure runs the SELECT state's second phase: from each candidate
// not yet sized, mark the objects reachable only through it and size the
// subgraph (§4.2). It is one serial loop on worker 0, which claims alone
// with plain stores: objects shared between candidates count for the first
// candidate, in candidate order, that claims them — the prototype's
// claim-based accounting, with an attribution no worker count changes.
// Mark sizes the candidates the in-use closure deferred, Remark the ones it
// found with the world stopped. Attribution to the edge table is a
// separate step (accountStale), so a concurrent cycle can demote drifted
// candidates before any bytes count.
func (t *tracer) staleClosure() {
	for ; t.sized < len(t.deferred); t.sized++ {
		e := &t.deferred[t.sized]
		e.bytes = t.workers[0].traceStaleRoot(e.expect.Untagged())
	}
}

// accountStale replays the candidates' sizes into the policy's
// AccountStaleBytes hook, serially and in candidate order, and returns the
// total.
func (t *tracer) accountStale() uint64 {
	var total uint64
	for _, e := range t.deferred {
		if t.plan.AccountStaleBytes != nil {
			t.plan.AccountStaleBytes(e.src, e.tgt, e.bytes)
		}
		total += e.bytes
	}
	return total
}

// poison applies a PRUNE cycle's deferred edges with the world stopped:
// each slot gets the poison bit as well as the tag bit (§4.3) and OnPrune
// hears of it, serially, in record order. It returns the count.
func (t *tracer) poison() int {
	for _, e := range t.deferred {
		t.heap.Get(heap.MakeRef(e.srcID)).SetRef(e.slot, e.expect.Untagged().WithPoison())
		if t.plan.OnPrune != nil {
			t.plan.OnPrune(e.srcID, e.slot, e.src, e.tgt)
		}
	}
	return len(t.deferred)
}

// traceStaleRoot marks and sizes the subgraph reachable from one candidate
// reference, skipping anything the in-use closure (or an earlier candidate)
// already claimed. The worker's mark stack, empty since the in-use closure
// ended, is the stack.
func (w *traceWorker) traceStaleRoot(root heap.Ref) uint64 {
	t := w.t
	if t.heap.GetCached(root, &w.cc) == nil {
		dangling(root)
	}
	if !w.claim(root.ID()) {
		return 0
	}
	var bytes uint64
	stack := append(w.local[:0], root.ID())
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		o := t.heap.GetCached(heap.MakeRef(id), &w.cc)
		if o == nil {
			continue
		}
		w.take(o)
		bytes += o.Size()
		for slot, n := 0, o.NumRefs(); slot < n; slot++ {
			r := o.Ref(slot)
			if r.IsNull() || r.IsPoisoned() {
				continue
			}
			tgt := t.heap.GetCached(r, &w.cc)
			if tgt == nil {
				dangling(r)
			}
			if t.plan.TagRefs && !r.IsStaleTagged() {
				t.applyStaleTag(o, slot, r)
			}
			if w.claim(r.ID()) {
				if tgt.NumRefs() != 0 {
					stack = append(stack, r.ID())
					continue
				}
				w.take(tgt) // a leaf, tallied at its claim as in scan
				bytes += tgt.Size()
			}
		}
	}
	w.local = stack
	return bytes
}
