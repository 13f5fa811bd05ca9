package gc

import (
	"time"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/heap"
)

// Mostly-concurrent marking, for all three cycle modes. The cycle is split
// across three short stop-the-world pauses with the expensive phases in
// between running while mutators execute:
//
//	pause 1 (STW)  StartConcurrent: flip the epoch, snapshot the roots
//	               (the controller has already frozen the edge-table
//	               staleness snapshot for SELECT/PRUNE in this pause)
//	concurrent     RunMark: the work-stealing closure over the snapshot;
//	               for SELECT, the stale closure over the candidate queue
//	pause 2 (STW)  FinishMark: drain SATB buffers, re-scan roots, finish
//	               the closure, verify SELECT candidates / apply deferred
//	               PRUNE poisonings against the frozen snapshot (demoting
//	               drifted edges), or degrade to a fresh fully-STW closure
//	concurrent     Sweep: reclaim unmarked objects via shard-safe FreeBatch
//	pause 3 (STW)  Finish: Result assembly
//
// Soundness is the snapshot-at-the-beginning argument (DESIGN.md,
// "Concurrent marking"): every object reachable at pause 1 stays marked
// because (a) the closure covers the snapshot, (b) every heap reference
// overwritten during the concurrent phase is logged by the mutators' SATB
// deletion barrier and re-seeded at pause 2, and (c) objects allocated
// during the cycle are born black (heap.SetAllocMarkEpoch — armed by the
// VM, not here, because allocation is the VM's domain). The closure may
// keep floating garbage alive one extra cycle; it can never free a live
// object.
//
// SELECT and PRUNE extend the argument (DESIGN.md, "Concurrent SELECT and
// PRUNE"): the paper's candidate selection and poisoning need one
// consistent staleness cut (§3.2, §4.2), so pause 1 additionally freezes
// the edge table's maxStaleUse values (core.Controller.PlanCycle) and
// every policy predicate evaluates against that frozen cut. Decisions
// taken while mutators ran are provisional: candidate slots stay
// stale-tagged, so any mutator access in the window either goes through
// the read barrier's cold path (untagging the slot) or replaces the slot
// value — both visible to FinishMark's expect-compare, which then demotes
// the edge (SnapshotDrift) instead of selecting/poisoning it. There are
// no unobservable pointer races on deferred edges, so a verified decision
// is identical to the one a fully-STW cycle at the same cut would take.
// Any fault, SATB overflow, or injected unresolvable drift degrades the
// whole cycle to the serial STW closure, reproducing the oracle.
type ConcurrentMark struct {
	c    *Collector
	plan Plan
	tr   *tracer
	res  Result

	start     time.Time
	traceBase int64
	markStart time.Time
	sw        sweepResult
}

// StartConcurrent begins a mostly-concurrent cycle (any mode): it advances
// the epoch and the staleness clock, snapshots the roots, and deals them to
// the tracer's deques. Call inside the initial stop-the-world pause; after
// it returns the caller arms black allocation (with Epoch()), arms the
// mutators' SATB barriers, and restarts the world before RunMark. For
// SELECT and PRUNE the caller must have frozen the staleness snapshot in
// the same pause (the controller's PlanCycle does).
func (c *Collector) StartConcurrent(plan Plan) *ConcurrentMark {
	cm := &ConcurrentMark{c: c, plan: plan, start: time.Now()}
	if c.obsTrace != nil {
		cm.traceBase = c.obsTrace.Now()
	}
	c.epoch++
	c.index++
	cm.res = Result{Mode: plan.Mode, Epoch: c.epoch, Index: c.index, Concurrent: true}
	cm.tr = c.scratch.newTracer(c.heap, c.epoch, plan, c.workers)
	cm.tr.concurrent = true
	cm.tr.deferOps = plan.Mode != ModeNormal
	if c.workers > 1 {
		cm.tr.inj = c.inj
	}
	c.roots.VisitRoots(func(r heap.Ref) {
		if r.IsNull() {
			return
		}
		cm.tr.markRoot(r.Untagged())
	})
	cm.tr.dealRoots()
	cm.markStart = time.Now()
	return cm
}

// Epoch returns the cycle's mark epoch — after a degraded FinishMark, the
// bumped re-run epoch. The VM stamps it into heap.SetAllocMarkEpoch so
// objects allocated while the cycle is in flight are born black.
func (cm *ConcurrentMark) Epoch() uint32 { return cm.res.Epoch }

// Mode returns the cycle's plan mode.
func (cm *ConcurrentMark) Mode() Mode { return cm.plan.Mode }

// RunMark drives the snapshot closure to termination (or abort) while
// mutators run. At GOMAXPROCS=1 the workers interleave with mutators
// through the scheduler — the closure cost leaves the pause either way.
// Worker panics are recovered even on the serial tracer: unlike the STW
// path, a concurrent closure has a sound fallback (FinishMark degrades to
// a fresh fully-STW closure).
//
// For SELECT, the stale closure also runs here, concurrently: it marks
// and sizes each candidate's subgraph, which is the bulk of a SELECT
// cycle's work on a leaking heap and must therefore stay out of the
// pauses. Only the sizes are recorded — attribution into the edge table
// waits until FinishMark has verified which candidates survived the
// window, so neither drift demotion nor a full degrade leaves phantom
// bytes behind.
func (cm *ConcurrentMark) RunMark() {
	cm.tr.process(true)
	cm.res.MarkDuration = time.Since(cm.markStart)
	if cm.plan.Mode == ModeSelect && !cm.tr.aborted.Load() {
		staleStart := time.Now()
		cm.tr.gatherCandidates()
		cm.tr.staleClosure()
		cm.res.StaleDuration = time.Since(staleStart)
	}
}

// FinishMark is the final-remark pause: with the world stopped again, the
// caller hands over every reference the SATB deletion barriers logged
// (grays) plus an optional degrade cause ("satb-drop" when barrier loss was
// detected). The closure is re-seeded from the current roots and the grays
// and driven to termination; tri-color-wise the grays are exactly the
// snapshot edges the mutators deleted, so after this pass the marked set
// covers everything reachable at the snapshot plus everything born black.
//
// For SELECT and PRUNE the remark then verifies every decision the
// concurrent phase deferred against the frozen staleness snapshot
// (verifySnapshot): surviving prune records are poisoned here, with the
// world stopped — exactly the STW path's semantics — and drifted edges are
// demoted rather than aborting the cycle. The pause stays bounded: the
// closure is already complete, so the remark scans only SATB grays, roots,
// and the deferred-decision lists, never the heap.
//
// Any degradation — a caller-supplied cause, a recovered worker panic,
// injected unresolvable snapshot drift, or an abort during the remark
// itself — falls back to the STW oracle: the epoch is bumped (invalidating
// every concurrent mark, including black allocations) and a fresh serial
// closure runs from the current roots under the same plan and the same
// frozen staleness cut, producing the same live set, candidate set, and
// prune decisions a fully-STW cycle would have.
func (cm *ConcurrentMark) FinishMark(grays []heap.Ref, degradeCause string) {
	c := cm.c
	remarkStart := time.Now()
	defer func() { cm.res.RemarkDuration = time.Since(remarkStart) }()

	if degradeCause == "" {
		degradeCause = cm.abortCause()
	}
	if degradeCause == "" && cm.plan.Mode != ModeNormal && c.inj.Should(faultinject.SelectSnapshotDrift) {
		// Injected unresolvable drift: model a window in which the frozen
		// snapshot cannot be reconciled per-edge (e.g. the verification
		// bookkeeping itself was lost). The only sound answer is the full
		// degrade below.
		degradeCause = "snapshot-drift"
	}
	if degradeCause == "" {
		// The world is stopped: from here on the tracer applies SELECT/PRUNE
		// decisions directly, exactly as the fully-STW path does.
		cm.tr.deferOps = false
		// Re-seed: current roots (cheap, conservative — they are live by
		// definition) plus the SATB grays, then run the closure again on the
		// same epoch. Already-marked entries fall out in markRoot's TryMark.
		c.roots.VisitRoots(func(r heap.Ref) {
			if r.IsNull() {
				return
			}
			cm.tr.markRoot(r.Untagged())
		})
		for _, r := range grays {
			if r.IsNull() || r.IsPoisoned() {
				continue
			}
			cm.tr.markRoot(r.Untagged())
		}
		cm.tr.dealRoots()
		cm.tr.process(true)
		degradeCause = cm.abortCause()
	}
	if degradeCause == "" && cm.plan.Mode != ModeNormal {
		cm.verifySnapshot()
		degradeCause = cm.abortCause()
	}
	if degradeCause != "" {
		c.degradedTraces.Add(1)
		cm.res.Degraded = true
		cm.res.DegradeCause = degradeCause
		// Invalidate every mark the concurrent attempt left behind by moving
		// to a fresh epoch, then re-run the whole closure serially under the
		// pause. Poison counts carry over as in the STW degradation path:
		// references verifySnapshot already poisoned stay poisoned (the
		// re-run, evaluating the same frozen cut, would poison them anyway
		// and skips poisoned slots); unverified prune records are simply
		// dropped — nothing was poisoned for them, so the serial re-run
		// re-derives those decisions from scratch.
		carried := cm.tr.prunedRefs
		for i := range cm.tr.workers {
			carried += cm.tr.workers[i].pruned
		}
		c.epoch++
		cm.res.Epoch = c.epoch
		tr, _ := c.runClosure(cm.plan, 1)
		tr.prunedRefs += carried
		cm.tr = tr
		if cm.plan.Mode == ModeSelect && len(tr.candidates) > 0 {
			// The serial re-run regenerated the candidate queue; run the
			// stale closure and attribution under the pause, as the STW
			// path does.
			staleStart := time.Now()
			tr.staleClosure()
			cm.res.StaleBytes = tr.accountStale()
			cm.res.StaleDuration = time.Since(staleStart)
		}
		return
	}
	cm.tr.merge()
	if cm.plan.Mode == ModeSelect {
		// Candidates discovered during the remark itself (rare: their source
		// objects became reachable only via SATB grays or new roots) were
		// appended by merge() and have no stale-closure sizing yet. They were
		// found with the world stopped, so trace them here — the count is
		// bounded by the remark's own small scan. Then attribute bytes for
		// every surviving candidate in one serial pass.
		t := cm.tr
		for i := len(t.staleBytesPer); i < len(t.candidates); i++ {
			t.staleBytesPer = append(t.staleBytesPer, t.workers[0].traceStaleRoot(t.candidates[i].ref))
		}
		cm.res.StaleBytes = t.accountStale()
	}
}

// verifySnapshot re-validates, inside the final pause, every decision the
// concurrent phase took against the frozen staleness snapshot. A decision
// survives if the recorded slot still holds the exact reference value the
// tracer left there AND the policy predicate still holds for the target's
// current stale counter (the maxStaleUse side of the predicate reads the
// frozen cut through the controller's pinned snapshot, so only mutator
// activity can change the outcome). Anything else is drift: the mutator
// used or overwrote the edge in the window, so the edge is demoted —
// dropped from candidacy (SELECT) or left unpoisoned (PRUNE) — and
// SnapshotDrift counts it. Demotion is sound: a used/overwritten slot's
// old target was either re-marked via the SATB grays, the stale closure,
// or the demote re-trace below, so the live set stays a superset of the
// truly reachable set.
func (cm *ConcurrentMark) verifySnapshot() {
	t := cm.tr
	switch cm.plan.Mode {
	case ModeSelect:
		kept := t.candidates[:0]
		keptBytes := t.staleBytesPer[:0]
		for i, cand := range t.candidates {
			if cm.stillValid(cand.srcID, cand.slot, cand.expect) &&
				t.plan.Candidate != nil && t.plan.Candidate(cand.src, cand.tgt, t.heap.Get(cand.ref).Stale()) {
				kept = append(kept, cand)
				keptBytes = append(keptBytes, t.staleBytesPer[i])
				continue
			}
			// Demoted. The subgraph was already marked by the concurrent
			// stale closure, so liveness needs nothing; the edge just stops
			// contributing to the cost function.
			cm.res.SnapshotDrift++
		}
		t.candidates, t.staleBytesPer = kept, keptBytes
	case ModePrune:
		for i := range t.workers {
			w := &t.workers[i]
			for _, rec := range w.pruneRecs {
				src, ok := t.heap.Lookup(rec.srcID)
				if ok && src.Ref(rec.slot) == rec.expect &&
					t.plan.ShouldPrune != nil &&
					t.plan.ShouldPrune(rec.src, rec.tgt, t.heap.Get(rec.expect).Stale()) {
					// Verified: no mutator touched the edge in the window.
					// Poison with the world stopped — byte-identical to the
					// STW path's in-closure poisoning.
					src.SetRef(rec.slot, rec.expect.Untagged().WithPoison())
					t.prunedRefs++
					if t.plan.OnPrune != nil {
						t.plan.OnPrune(rec.srcID, rec.slot, rec.src, rec.tgt)
					}
					continue
				}
				// Demoted: the program used or overwrote the reference, so
				// pruning it now would poison a live edge. The current slot
				// value's target must be in the live set — its subgraph was
				// deliberately left untraced when the decision was deferred.
				cm.res.SnapshotDrift++
				if ok {
					if cur := src.Ref(rec.slot); !cur.IsNull() && !cur.IsPoisoned() {
						t.markRoot(cur.Untagged())
					}
				}
			}
			w.pruneRecs = w.pruneRecs[:0]
		}
		if len(t.roots) > 0 {
			// Trace the demoted targets' subgraphs to completion inside the
			// pause; demotions are rare (one per mutator-touched edge), so
			// this stays bounded.
			t.dealRoots()
			t.process(true)
		}
	}
}

// stillValid reports whether the source object's slot still holds exactly
// the reference value the concurrent scan recorded. Any mutator access in
// the window changes it: a load through the read barrier's cold path
// untags it, a store replaces it.
func (cm *ConcurrentMark) stillValid(id heap.ObjectID, slot int, expect heap.Ref) bool {
	obj, ok := cm.tr.heap.Lookup(id)
	return ok && obj.Ref(slot) == expect
}

// abortCause maps the tracer's abort state to a degrade cause ("" = none).
func (cm *ConcurrentMark) abortCause() string {
	if !cm.tr.aborted.Load() {
		return ""
	}
	c := cm.c
	if cm.tr.abortWhy.Load() == abortPanic {
		c.recoveredPanics.Add(1)
		if msg := cm.tr.lastPanic.Load(); msg != nil {
			c.lastPanicMsg.Store(msg)
		}
		return "worker-panic"
	}
	return "aborted"
}

// Sweep reclaims every object the cycle left unmarked. It may run while
// mutators execute: unmarked objects are unreachable (the SATB argument
// above), the probes and frees go through atomic liveness words and the
// shard locks, and anything allocated meanwhile is born black under the
// still-armed alloc-mark epoch, so the sweeper cannot touch it. OnFree
// callbacks (finalizers) are replayed serially on the calling goroutine,
// outside any pause.
func (cm *ConcurrentMark) Sweep() {
	sweepStart := time.Now()
	cm.sw = cm.c.sweep(cm.plan)
	cm.res.SweepDuration = time.Since(sweepStart)
}

// Finish completes the cycle inside the closing pause: result assembly and
// observability. After it returns the caller disarms black allocation and
// publishes the Result.
func (cm *ConcurrentMark) Finish() Result {
	cm.res.Candidates = len(cm.tr.candidates)
	cm.res.PrunedRefs = int(cm.tr.prunedRefs)
	cm.res.BytesFreed = cm.sw.bytesFreed
	cm.res.ObjectsFreed = cm.sw.objectsFreed
	cm.res.BytesLive = cm.sw.bytesLive
	cm.res.ObjectsLive = cm.sw.objectsLive
	cm.res.MaxStale = cm.sw.maxStale
	cm.res.Duration = time.Since(cm.start)
	cm.c.observeCycle(cm.traceBase, &cm.res)
	return cm.res
}
