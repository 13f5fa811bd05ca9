package gc

import (
	"math"
	"time"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/heap"
)

// Cycle is one full-heap collection, driven through its phases in order:
//
//	start   clear the mark bitmap, mark the free slots, record the sweep's
//	        watermark, advance the collection index, claim the roots and
//	        deal them to the tracer
//	Mark    the work-stealing closure, which defers SELECT and PRUNE edges;
//	        for SELECT also the stale closure over them (sizes only)
//	Remark  a concurrent cycle re-seeds from the roots and the SATB grays
//	        and verifies the deferred edges; any fault degrades the cycle
//	        to the serial closure; stale bytes are attributed, or the PRUNE
//	        edges poisoned
//	Sweep   reclaim every unmarked object
//	Finish  advance the stale clock (aging cycles), assemble the Result
//	        and record it
//
// Collect runs the phases back to back with the world stopped. A
// mostly-concurrent cycle (StartConcurrent) runs the same phases with the
// world restarted around Mark and Sweep, so its caller holds three short
// pauses — start, Remark, Finish — instead of one. Two things depend on the
// form: only the concurrent Remark re-seeds, verifies and may draw
// SelectSnapshotDrift (an STW cycle is the concurrent one with nothing to
// verify); and a concurrent single-worker closure recovers
// panics, because it has a sound fallback, while the serial STW closure is
// that fallback and must crash loudly.
//
// The concurrent form is sound by the snapshot-at-the-beginning argument
// (DESIGN.md, "Concurrent marking"): every object reachable at start stays
// marked because (a) the closure covers the snapshot, (b) every heap
// reference overwritten while Mark runs is logged by the mutators' SATB
// deletion barrier and re-seeded at Remark, and (c) start marks every free
// slot and records the ID watermark, so the sweep frees no object born
// during the cycle (see Collector.sweep). Floating garbage may live one
// extra cycle; a live object is never freed.
//
// SELECT and PRUNE need one consistent staleness cut (§3.2, §4.2): the
// caller freezes the edge table's maxStaleUse values in the start pause
// (core.Controller.PlanCycle) and every policy predicate reads that cut.
// The closure takes no SELECT or PRUNE side effect: it records each
// deferred edge and Remark applies them serially. Edges deferred while
// mutators run stay stale-tagged, so any mutator access either goes through
// the read barrier's cold path (untagging the slot) or replaces the slot
// value — both visible to Remark's expect-compare, which demotes the edge
// (SnapshotDrift) instead of selecting or poisoning it. With no
// unobservable pointer races on deferred edges, a verified decision is the
// one an STW cycle at the same cut takes.
type Cycle struct {
	c          *Collector
	plan       Plan
	concurrent bool
	tr         *tracer
	res        Result
	below      heap.ObjectID // heap.MaxID at the closure's start: the sweep walks only the IDs under it

	began     time.Time
	traceBase int64
}

// start begins a cycle under plan. A concurrent cycle's caller runs it in
// the first pause, after freezing the staleness snapshot for SELECT and
// PRUNE and settling every allocation context, then arms the mutators'
// SATB barriers and restarts the world before Mark.
func (c *Collector) start(plan Plan, concurrent bool) *Cycle {
	cy := &Cycle{c: c, plan: plan, concurrent: concurrent, began: time.Now()}
	if c.obsTrace != nil {
		cy.traceBase = c.obsTrace.Now()
	}
	c.index++
	cy.res = Result{Mode: plan.Mode, Index: c.index, Concurrent: concurrent}
	cy.closure(c.workers)
	return cy
}

// StartConcurrent begins a mostly-concurrent cycle (any mode); see Cycle.
func (c *Collector) StartConcurrent(plan Plan) *Cycle { return c.start(plan, true) }

// closure clears the mark bitmap, marks the free slots, records the
// watermark and readies a tracer of the given width, its roots claimed and
// dealt. Faults are injected into parallel tracers only: the serial one is
// the degrade target.
func (cy *Cycle) closure(workers int) {
	c := cy.c
	c.heap.ClearMarks()
	c.heap.MarkFreeSlots()
	cy.below = c.heap.MaxID()
	cy.tr = c.scratch.newTracer(c.heap, cy.plan, workers, cy.concurrent)
	if workers > 1 {
		cy.tr.inj = c.inj
	}
	cy.tr.markRoots(c.roots)
	cy.tr.dealRoots()
}

// Mode returns the cycle's plan mode.
func (cy *Cycle) Mode() Mode { return cy.plan.Mode }

// Degraded reports whether Remark degraded the cycle to the serial closure.
func (cy *Cycle) Degraded() bool { return cy.res.Degraded }

// Mark drives the closure to termination or abort: inside the pause for an
// STW cycle, under the watchdog deadline when one is set and the closure is
// parallel; beside the mutators for a concurrent one (at GOMAXPROCS=1 its
// workers interleave with them through the scheduler).
//
// Mark then gathers the edges the closure deferred. For SELECT the stale
// closure runs here too. It marks and sizes each candidate's subgraph — the
// bulk of a SELECT cycle's work on a leaking heap, which a concurrent cycle
// must keep out of its pauses. Only sizes are recorded: attribution waits
// until Remark knows which candidates survived, so neither a demotion nor a
// degrade leaves phantom bytes.
func (cy *Cycle) Mark() {
	t := cy.tr
	t0 := time.Now()
	var timer *time.Timer
	if !cy.concurrent && len(t.workers) > 1 && cy.c.watchdog > 0 {
		timer = time.AfterFunc(cy.c.watchdog, func() { t.abort(abortWatchdog) })
	}
	t.process(cy.concurrent || len(t.workers) > 1)
	if timer != nil {
		timer.Stop()
	}
	cy.res.MarkDuration = time.Since(t0)
	t.gather()
	if cy.plan.Mode == ModeSelect && !t.aborted.Load() {
		t0 = time.Now()
		t.staleClosure()
		cy.res.StaleDuration = time.Since(t0)
	}
}

// Remark finishes the mark with the world stopped. A concurrent cycle's
// caller hands over every reference the SATB deletion barriers logged
// (grays) and a degrade cause it detected itself ("satb-drop" on barrier
// loss); an STW cycle has neither. An aborted closure, the caller's cause,
// or a fault during the concurrent re-scan degrades the cycle; otherwise
// the workers' buffers are merged. Then every deferred edge that survived
// is applied in one serial pass: a PRUNE edge is poisoned, a SELECT
// candidate's stale bytes are attributed.
func (cy *Cycle) Remark(grays []heap.Ref, cause string) {
	t0 := time.Now()
	if cause == "" {
		cause = cy.abortCause()
	}
	if cause == "" && cy.concurrent {
		cause = cy.rescan(grays)
	}
	if cause != "" {
		cy.degrade(cause)
	} else {
		cy.tr.merge()
	}
	if cy.plan.Mode == ModePrune {
		cy.res.PrunedRefs = cy.tr.poison()
	}
	if d := time.Since(t0); cy.concurrent || cause != "" {
		cy.res.RemarkDuration = d
	} else {
		cy.res.MarkDuration += d // an undisturbed STW mark ends with its merge and poisons
	}
	if cy.plan.Mode == ModeSelect {
		// Size the candidates Mark's stale closure did not — every one
		// after a degrade, else the few the concurrent re-scan found.
		t0 = time.Now()
		cy.tr.staleClosure()
		cy.res.StaleBytes = cy.tr.accountStale()
		cy.res.StaleDuration += time.Since(t0)
		cy.res.Candidates = len(cy.tr.deferred)
	}
}

// rescan is the concurrent remark proper. The closure is re-seeded from
// the current roots (live by definition) and the grays — tri-color-wise
// exactly the snapshot edges the mutators deleted — and driven to
// termination on the same bitmap, so the marked set covers everything
// reachable at the snapshot. SELECT and PRUNE then verify every edge Mark
// gathered; the re-scan's own deferred edges were found with the world
// stopped and need none. The pause stays bounded: the closure is already
// complete, so it scans the grays, the roots and the deferred edges, never
// the heap. It returns a degrade cause, or "".
func (cy *Cycle) rescan(grays []heap.Ref) string {
	if cy.plan.Mode != ModeNormal && cy.c.inj.Should(faultinject.SelectSnapshotDrift) {
		// Injected unresolvable drift: a window whose frozen snapshot cannot
		// be reconciled per edge (say the verification bookkeeping was
		// lost). The only sound answer is to degrade.
		return "snapshot-drift"
	}
	t := cy.tr
	t.markRoots(cy.c.roots)
	for _, r := range grays {
		if !r.IsNull() && !r.IsPoisoned() {
			t.markRoot(r.Untagged())
		}
	}
	t.dealRoots()
	t.process(true)
	if cause := cy.abortCause(); cause != "" || cy.plan.Mode == ModeNormal {
		return cause
	}
	cy.verifySnapshot()
	return cy.abortCause()
}

// abortCause maps the tracer's abort to a degrade cause and counts it; ""
// when the closure was not aborted.
func (cy *Cycle) abortCause() string {
	c := cy.c
	switch cy.tr.abortWhy.Load() {
	case abortPanic:
		c.recoveredPanics.Add(1)
		if msg := cy.tr.lastPanic.Load(); msg != nil {
			c.lastPanicMsg.Store(msg)
		}
		return "worker-panic"
	case abortWatchdog:
		c.watchdogAborts.Add(1)
		return "watchdog"
	}
	return ""
}

// degrade abandons the attempt and re-runs the closure on the serial
// tracer, inside the remark's pause. The re-run starts as the cycle did
// (closure), so objects born during Mark are traced like any other; its
// clear also drops the marks of the free slots mutators took into their
// runs, which a concurrent cycle's caller restores (heap.MarkRuns). It
// traces from the current roots under the same plan and, for
// SELECT/PRUNE, the same frozen cut, so it yields the live set and the
// deferred edges of a fault-free STW cycle. The attempt poisoned nothing,
// so the re-run finds every edge again.
func (cy *Cycle) degrade(cause string) {
	c := cy.c
	c.degradedTraces.Add(1)
	cy.res.Degraded, cy.res.DegradeCause = true, cause
	cy.closure(1)
	cy.tr.process(false)
	cy.tr.merge()
}

// verifySnapshot re-checks, inside the remark pause, every edge Mark
// gathered against the frozen staleness snapshot. An edge survives if its
// slot still holds the exact value the tracer left there AND the plan's
// predicate still holds for the target's current stale counter (the
// maxStaleUse side reads the frozen cut, so only mutator activity can
// change the outcome). Anything else is drift: the mutator used or
// overwrote the edge in the window, so the edge is demoted — dropped from
// candidacy (SELECT) or left unpoisoned (PRUNE) — and SnapshotDrift counts
// it. Demotion is sound: a used or overwritten slot's old target was
// re-marked via the SATB grays or the stale closure, and a PRUNE slot's
// current target, left untraced when the edge was deferred, is traced
// here.
func (cy *Cycle) verifySnapshot() {
	t := cy.tr
	kept := t.deferred[:0]
	for _, e := range t.deferred {
		src, ok := t.heap.Lookup(e.srcID)
		if ok && src.Ref(e.slot) == e.expect && t.defers(e.src, e.tgt, t.clock.Stale(t.heap.Get(e.expect).StalePos())) {
			kept = append(kept, e)
			continue
		}
		cy.res.SnapshotDrift++
		if cy.plan.Mode != ModePrune || !ok {
			continue
		}
		if cur := src.Ref(e.slot); !cur.IsNull() && !cur.IsPoisoned() {
			t.markRoot(cur.Untagged())
		}
	}
	// Mark sized every gathered candidate; the dropped ones are gone.
	t.deferred, t.sized = kept, len(kept)
	if len(t.roots) > 0 {
		// Demotions are rare (one per mutator-touched edge), so tracing
		// their targets to completion keeps the pause bounded.
		t.dealRoots()
		t.process(true)
	}
}

// Sweep reclaims every object below the watermark the cycle left
// unmarked. In a concurrent cycle it runs beside the mutators: unmarked
// objects are unreachable (the SATB argument above), probes and frees go
// through atomic liveness words and the free-list lock, and no birth lands
// where the sweep has still to read. OnFree callbacks (finalizers) are
// replayed serially on the calling goroutine.
func (cy *Cycle) Sweep() {
	t0 := time.Now()
	cy.c.sweep(cy.plan, cy.below, &cy.res)
	cy.res.SweepDuration = time.Since(t0)
}

// Finish advances the stale clock for an aging cycle, assembles the Result
// and records it in the observability layer. The clock steps after the
// sweep has sampled the dead and with no mutator running: an STW cycle
// finishes right after its sweep, inside the one pause; a concurrent
// cycle's caller runs Finish in the closing pause and publishes the
// Result. Every object born or used during the cycle holds the position
// before the step, so it reads 1 after it, as if the sweep had aged it.
func (cy *Cycle) Finish() Result {
	if cy.plan.AgeStaleness {
		cy.c.heap.AgeStale(cy.res.Index)
	}
	minPos := uint32(math.MaxUint32)
	for i := range cy.tr.workers {
		w := &cy.tr.workers[i]
		cy.res.ObjectsLive += w.scans
		cy.res.BytesLive += w.bytesLive
		minPos = min(minPos, w.minPos)
	}
	cy.res.MaxStale = cy.c.heap.Clock().Stale(minPos)
	cy.res.Duration = time.Since(cy.began)
	cy.c.observeCycle(cy.traceBase, &cy.res)
	return cy.res
}
