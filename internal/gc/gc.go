// Package gc implements the parallel tracing collector the leak-pruning
// runtime piggybacks on. It is modelled on MMTk's parallel mark-sweep (§5):
// trace workers keep local mark stacks and exchange batches of work through
// per-worker Chase–Lev work-stealing deques (see deque.go); objects are
// claimed by setting their bit in the heap's mark bitmap, with a
// compare-and-swap so no object is scanned twice, or with a plain store
// while one worker traces alone. The closure starts on the calling
// goroutine and adds a worker only when a batch is waiting for one (see
// tracer), so a small heap is traced serially whatever the worker count.
// The workers tally what they scan. The cycle's start marks every free
// slot, so the sweep reads only the table entries of clear bits — the dead
// — below the ID watermark recorded there, and frees each in place as it
// reads it, in ID order.
//
// Every full-heap collection is one Cycle driven through the same phases
// (start, Mark, Remark, Sweep, Finish). The stop-the-world form (Collect)
// holds the world across all of them; the mostly-concurrent form
// (StartConcurrent) restarts it around Mark and Sweep. Either form degrades
// to the serial closure on a tracer fault.
//
// Leak pruning divides the regular transitive closure into the in-use
// closure and the stale closure (§4.2) and, in the PRUNE state, poisons
// selected references instead of tracing them (§4.3). The collector exposes
// those behaviours through a per-cycle Plan of callbacks so the pruning
// controller (package core) owns all policy and the collector stays
// mechanism-only.
package gc

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/heap"
	"leakpruning/internal/obs"
)

// Mode selects the closure structure for one collection cycle.
type Mode int

const (
	// ModeNormal is a regular full-heap collection: one transitive closure.
	ModeNormal Mode = iota
	// ModeSelect runs the SELECT state's two closures: the in-use closure
	// defers candidate references to a queue, then the stale closure traces
	// from each candidate, attributing reachable bytes to its edge type.
	ModeSelect
	// ModePrune runs only the in-use closure and poisons references the
	// plan selects instead of tracing them; sweep then reclaims everything
	// that was reachable only through poisoned references.
	ModePrune
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeSelect:
		return "select"
	case ModePrune:
		return "prune"
	}
	return "unknown"
}

// Plan configures one collection cycle. Candidate and ShouldPrune may be
// invoked concurrently from tracer workers and must be safe for that;
// StaleEdge and OnFree are buffered by the workers and delivered serially,
// and AccountStaleBytes and OnPrune are called serially (see their
// comments).
type Plan struct {
	Mode Mode

	// TagRefs makes the tracer set the stale-check tag (heap.TagStale) on
	// every object-to-object reference it scans, arming the read barrier's
	// cold path (§4.1). Enabled from the OBSERVE state onward.
	TagRefs bool

	// AgeStaleness makes the cycle an aging collection: it advances the
	// heap's stale clock (heap.AgeStale), which ages every object's stale
	// counter by the logarithmic rule (§4.1). Enabled from OBSERVE onward.
	AgeStaleness bool

	// Candidate reports whether a src→tgt reference whose target has the
	// given stale counter should be deferred to the stale closure
	// (ModeSelect only; nil means no candidates are taken).
	Candidate func(src, tgt heap.ClassID, stale uint8) bool

	// StaleEdge is called for every reference the in-use closure traced
	// whose target has stale counter >= 2, with the target's own size. The
	// individual-references baseline (§6.1) accounts bytes here instead of
	// running the stale closure. Workers buffer these observations and the
	// tracer replays them serially after the closure completes, so the
	// callback needs no locking.
	StaleEdge func(src, tgt heap.ClassID, stale uint8, tgtBytes uint64)

	// AccountStaleBytes receives, for each candidate root, the bytes the
	// stale closure could attribute to it (objects not already reached by
	// the in-use closure or an earlier candidate). It is called serially,
	// in candidate order, by Remark. ModeSelect only.
	AccountStaleBytes func(src, tgt heap.ClassID, bytes uint64)

	// ShouldPrune decides whether to poison a src→tgt reference instead of
	// tracing it (ModePrune only).
	ShouldPrune func(src, tgt heap.ClassID, stale uint8) bool

	// OnPrune is called once per poisoned reference with the source object,
	// its slot, and the edge classes (diagnostics and precise trap
	// messages). It is called serially, by Remark, with the world stopped.
	OnPrune func(srcID heap.ObjectID, slot int, src, tgt heap.ClassID)

	// OnFree is called serially, once per object the sweep reclaims, after
	// the sweep has freed them all (the VM uses this to run
	// finalizers, §2, which must never observe concurrency). The object's
	// identity, class, and size are captured at scan time, before the slot
	// is recycled.
	OnFree func(id heap.ObjectID, class heap.ClassID, size uint64)
}

// Result summarizes one collection cycle.
type Result struct {
	Mode Mode
	// Index is the 1-based count of full-heap collections performed by this
	// collector; an aging cycle steps the stale clock by it.
	Index uint64

	// BytesLive and ObjectsLive count the objects the cycle's closure
	// reached. That includes an object born during a concurrent cycle in a
	// slot above the start's watermark, if the closure reached it; a birth
	// in a slot free at the start is marked already, so it is not counted.
	BytesLive    uint64
	ObjectsLive  uint64
	BytesFreed   uint64
	ObjectsFreed uint64

	// Candidates is the number of references deferred to the stale closure.
	Candidates int
	// StaleBytes is the total bytes the stale closure attributed.
	StaleBytes uint64
	// PrunedRefs is the number of references poisoned this cycle.
	PrunedRefs int
	// MaxStale is the highest stale counter among live objects after the
	// cycle (after its clock step, for an aging cycle).
	MaxStale uint8

	// The phase durations do not overlap. Duration is the whole cycle, from
	// start to Finish; for a concurrent cycle it includes the time the world
	// ran between the phases. MarkDuration is the Mark phase's closure.
	// StaleDuration is the SELECT stale closure and its attribution.
	// RemarkDuration is the Remark phase less its stale-closure work: a
	// concurrent cycle's re-scan, verification, merge and poisons and, in
	// either mark mode, a degraded cycle's serial re-run. It is 0 for an STW
	// cycle that did not degrade, whose merge and poisons count in
	// MarkDuration. SweepDuration is the sweep.
	Duration       time.Duration
	MarkDuration   time.Duration
	StaleDuration  time.Duration
	SweepDuration  time.Duration
	RemarkDuration time.Duration

	// Concurrent reports that the cycle's closure ran mostly-concurrently
	// with mutators (snapshot roots → concurrent mark → final remark)
	// instead of inside one stop-the-world section.
	Concurrent bool

	// SnapshotDrift counts candidate edges (SELECT) or deferred prune
	// records (PRUNE) that a concurrent cycle's final remark demoted
	// because a mutator invalidated the frozen staleness snapshot for that
	// edge in the window: the slot's value changed (use untagged it, or a
	// store replaced it) or the target's stale counter dropped below the
	// frozen threshold. Demotion is per-edge — the cycle completes without
	// degrading. Always 0 for STW cycles and for deterministic
	// single-threaded runs (no mutator runs during the concurrent phase).
	SnapshotDrift int

	// Degraded reports that the closure was abandoned and the collection
	// completed via the serial fallback tracer. The live set is identical
	// to a fault-free run; only the trace cost differs.
	Degraded bool
	// DegradeCause names why: "worker-panic" or "watchdog" in either mark
	// mode, and for concurrent cycles also "satb-drop" or "snapshot-drift";
	// empty when not degraded.
	DegradeCause string
}

// RootVisitor is implemented by the VM to expose its roots (thread stacks,
// globals, registers). The collector calls fn with each root reference; tag
// bits on roots are ignored (root slots are never tagged: the barrier only
// instruments heap loads).
type RootVisitor interface {
	VisitRoots(fn func(heap.Ref))
}

// Collector owns the GC-count state and the cycle scratch for one heap.
type Collector struct {
	heap    *heap.Heap
	roots   RootVisitor
	workers int

	index uint64

	// inj injects tracer faults into parallel closures (nil = disabled).
	inj *faultinject.Injector
	// watchdog is the STW deadline for the parallel closure; when it
	// elapses, the trace is aborted and re-run serially instead of hanging
	// (0 = no deadline).
	watchdog time.Duration

	// Degradation counters (see the accessors for semantics).
	degradedTraces  atomic.Uint64
	watchdogAborts  atomic.Uint64
	recoveredPanics atomic.Uint64
	lastPanicMsg    atomic.Value // string

	// freer, finals, pruned and scratch are the sweep's and the tracer's
	// memory, kept across cycles so a steady-state cycle allocates next to
	// nothing. One full cycle runs at a time (the VM's cycle lock).
	freer   *heap.Freer     // the sweep's frees, published heap.SweepBatch at a time
	finals  []freeRec       // the freed objects' finalizer records (Plan.OnFree only)
	pruned  heap.PruneTally // a prune sweep's histogram samples, merged once
	scratch traceScratch
	swept   heap.ObjectID // the last sweep's watermark (Swept)

	// Observability handles (all nil when disabled; every method on them
	// is nil-safe, so call sites stay unconditional). Phase spans reuse the
	// durations the cycle already measures — tracing adds no extra time.Now
	// on the disabled path.
	obsTrace  *obs.Tracer
	mMark     *obs.Histogram
	mStale    *obs.Histogram
	mSweep    *obs.Histogram
	cCycles   [3]*obs.Counter
	cDegraded *obs.Counter
}

// NewCollector creates a collector with the given parallelism (values < 1
// mean 1).
func NewCollector(h *heap.Heap, roots RootVisitor, workers int) *Collector {
	if workers < 1 {
		workers = 1
	}
	return &Collector{heap: h, roots: roots, workers: workers, freer: h.NewFreer(),
		scratch: traceScratch{pool: make([]traceWorker, workers)}}
}

// Swept returns the last sweep's watermark: when that sweep ended, every
// mark bit below it but ID 0's was set.
func (c *Collector) Swept() heap.ObjectID { return c.swept }

// Workers returns the configured tracer parallelism.
func (c *Collector) Workers() int { return c.workers }

// Index returns the number of full-heap collections performed so far.
func (c *Collector) Index() uint64 { return c.index }

// SetFaultInjector arms fault injection inside parallel trace closures
// (worker panics, watchdog trips). The serial fallback is never injected.
func (c *Collector) SetFaultInjector(inj *faultinject.Injector) { c.inj = inj }

// SetWatchdog sets the deadline for an STW cycle's parallel closure: if it
// has not terminated within d, it is aborted and the collection re-runs
// with the serial tracer instead of hanging the world (0 disables the
// deadline). A concurrent cycle's closure runs outside the pause and has
// no deadline.
func (c *Collector) SetWatchdog(d time.Duration) { c.watchdog = d }

// SetObs attaches the observability layer: per-phase duration histograms,
// per-mode cycle counters, and Chrome trace spans for mark/stale/sweep
// (plus a prune overlay span in ModePrune). A nil o leaves everything
// disabled.
func (c *Collector) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	c.obsTrace = o.Tracer()
	reg := o.Registry()
	c.mMark = reg.NewHistogram("lp_gc_mark_ns", "in-use closure duration per collection", obs.DurationBucketsNs)
	c.mStale = reg.NewHistogram("lp_gc_stale_ns", "stale closure duration per SELECT collection", obs.DurationBucketsNs)
	c.mSweep = reg.NewHistogram("lp_gc_sweep_ns", "sweep phase duration per collection", obs.DurationBucketsNs)
	for m := ModeNormal; m <= ModePrune; m++ {
		c.cCycles[m] = reg.NewCounter("lp_gc_cycles_total", "full-heap collections by mode", obs.L("mode", m.String()))
	}
	c.cDegraded = reg.NewCounter("lp_gc_degraded_total", "collections completed via the serial fallback tracer")
}

// observeCycle records one finished collection into the metrics registry
// and, when tracing, emits the phase spans. base is the tracer clock at
// cycle start (0 when tracing is off). Every call below is nil-safe, so
// with observability disabled this reduces to a handful of nil checks. A
// remark span is emitted for concurrent cycles and for degraded ones, whose
// serial re-run it times.
func (c *Collector) observeCycle(base int64, res *Result) {
	if int(res.Mode) < len(c.cCycles) {
		c.cCycles[res.Mode].Inc()
	}
	if res.Degraded {
		c.cDegraded.Inc()
	}
	c.mMark.Observe(uint64(res.MarkDuration))
	if res.Mode == ModeSelect {
		c.mStale.Observe(uint64(res.StaleDuration))
	}
	c.mSweep.Observe(uint64(res.SweepDuration))

	tr := c.obsTrace
	if tr == nil {
		return
	}
	gcArg := obs.A("gc", int64(res.Index))
	ts := base
	mark := res.MarkDuration.Nanoseconds()
	markName := "gc.mark"
	if res.Concurrent {
		// Concurrent cycles get their own span name: this phase ran outside
		// the pause, so tooling must not read it as stop-the-world time.
		markName = "gc.mark.concurrent"
	}
	tr.Emit(obs.Span(markName, "gc", ts, mark, 0, gcArg, obs.AS("mode", res.Mode.String())))
	if res.Mode == ModePrune {
		// The in-use closure takes the prune decisions, so the prune span
		// overlays the mark span.
		tr.Emit(obs.Span("gc.prune", "gc", ts, mark, 0, gcArg, obs.A("pruned_refs", int64(res.PrunedRefs))))
	}
	ts += mark
	if res.Concurrent || res.Degraded {
		remark := res.RemarkDuration.Nanoseconds()
		tr.Emit(obs.Span("gc.remark", "gc", ts, remark, 0, gcArg, obs.AS("degraded", fmt.Sprint(res.Degraded))))
		ts += remark
	}
	if res.Mode == ModeSelect {
		stale := res.StaleDuration.Nanoseconds()
		tr.Emit(obs.Span("gc.stale", "gc", ts, stale, 0, gcArg,
			obs.A("candidates", int64(res.Candidates)), obs.A("stale_bytes", int64(res.StaleBytes))))
		ts += stale
	}
	sweep := res.SweepDuration.Nanoseconds()
	tr.Emit(obs.Span("gc.sweep", "gc", ts, sweep, 0, gcArg, obs.A("freed_bytes", int64(res.BytesFreed))))
	if res.Degraded {
		tr.Emit(obs.Instant("gc.degraded", "gc", base, 0, obs.AS("cause", res.DegradeCause)))
	}
}

// DegradedTraces counts collections that completed via the serial fallback
// tracer after the parallel closure was abandoned (for any cause).
func (c *Collector) DegradedTraces() uint64 { return c.degradedTraces.Load() }

// WatchdogAborts counts parallel closures abandoned because the STW
// watchdog deadline fired (a subset of DegradedTraces).
func (c *Collector) WatchdogAborts() uint64 { return c.watchdogAborts.Load() }

// RecoveredPanics counts trace-worker panics recovered at the worker
// goroutine boundary (a subset of DegradedTraces).
func (c *Collector) RecoveredPanics() uint64 { return c.recoveredPanics.Load() }

// LastTracePanic returns the most recent recovered worker panic message, or
// "" if none has occurred.
func (c *Collector) LastTracePanic() string {
	if v := c.lastPanicMsg.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Collect runs one stop-the-world collection cycle under the given plan:
// the Cycle's phases back to back, with the world held across all of them.
// The caller must have stopped all mutator threads: under the VM's
// safepoint protocol, by completing the ragged barrier (every registered
// thread observed at a safepoint with the stop flag raised). A tracer fault
// never escapes: the cycle degrades to the serial closure (Cycle.Remark),
// whose live set is byte-identical to a fault-free run.
func (c *Collector) Collect(plan Plan) Result {
	cy := c.start(plan, false)
	cy.Mark()
	cy.Remark(nil, "")
	cy.Sweep()
	return cy.Finish()
}

// freeRec captures a reclaimed object's identity for the serial finalizer
// pass, recorded at scan time before the slot is recycled.
type freeRec struct {
	id    heap.ObjectID
	class heap.ClassID
	size  uint64
}

// sweep reclaims every object below the watermark whose mark bit is clear: the
// start pause marked every free slot, so a clear bit is an object the closure
// did not reach. A birth during a concurrent sweep lands in a marked slot, at
// or above below, or in a slot this sweep freed behind its ascending cursor,
// so each bitmap word is loaded once; done with it, the sweep sets the bits it
// freed, and afterwards every bit below the watermark but ID 0's is set (the
// VM's post-cycle audit checks it). It walks the table in ascending order,
// chunk by chunk, and frees each dead object in place as it reads the entry
// (heap.Freer), which publishes the frees heap.SweepBatch at a time. The IDs
// ascend, so every shard's free list receives its IDs in ascending order —
// the same list one FreeBatch of every dead ID would leave — at any worker
// count and any schedule: which ID the next allocation recycles never depends
// on GCWorkers. The finalizer hook runs after the last free, on identities
// captured during the scan, so finalizers never observe concurrency. It adds
// the freed tallies to res.
func (c *Collector) sweep(plan Plan, below heap.ObjectID, res *Result) {
	// In a prune cycle every reclaimed object was held only through
	// poisoned or dead references; the sweep tallies their size and
	// staleness age at exactly this point, before the free clears the
	// header and before the clock advances, and merges the tally into the
	// heap's prune histograms once, after the scan.
	pruneMode := plan.Mode == ModePrune
	finals := c.finals[:0]
	for base := heap.ObjectID(0); base < below; {
		objs, marks, end := c.heap.Entries(base, below) // base is a chunk start, so word-aligned
		for i := 0; i < len(objs); i += 64 {
			w := &marks[i>>6]
			old, freed := *w, uint64(0)
			for clr := ^old; clr != 0; clr &= clr - 1 {
				j := i + bits.TrailingZeros64(clr)
				if j >= len(objs) {
					break
				}
				obj := &objs[j]
				size := obj.Size()
				if size == 0 { // ID 0, or a slot in an unsettled allocation run
					continue
				}
				freed |= clr & -clr
				id := base + heap.ObjectID(j)
				res.BytesFreed += size
				res.ObjectsFreed++
				if pruneMode {
					c.heap.RecordPrunedFree(&c.pruned, obj)
				}
				if plan.OnFree != nil {
					finals = append(finals, freeRec{id: id, class: obj.Class(), size: size})
				}
				c.freer.Free(id, obj)
			}
			if freed != 0 {
				*w = old | freed // the sweep is the bitmap's only writer now
			}
		}
		base = end
	}
	c.heap.MergePruned(&c.pruned)
	c.freer.Flush()
	c.finals, c.swept = finals, below
	for _, f := range finals {
		plan.OnFree(f.id, f.class, f.size)
	}
}
