package vm

import (
	"time"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/gc"
)

// collectConcurrent runs one full collection cycle in mostly-concurrent
// mark mode (Options.MarkMode == MarkConcurrent). Caller holds cycleMu.
//
// It drives the same gc.Cycle phases an STW collection (gc.Collect) runs
// back to back in one pause, but restarts the world around Mark and Sweep:
//
//	pause 1  plan the cycle — settle the allocation contexts; for
//	         SELECT/PRUNE freeze the edge table's staleness snapshot
//	         (core.Controller.PlanCycle) — start it (gc.StartConcurrent:
//	         mark the free slots, claim the roots), arm the SATB deletion
//	         barriers
//	         ... Mark (SELECT also sizes its stale closure here) ...
//	pause 2  drain the SATB buffers, Remark: finish the closure, verify
//	         deferred SELECT/PRUNE decisions against the frozen snapshot
//	         (drifted edges are demoted per edge) — or degrade to the
//	         serial closure on any fault, then re-mark the slots left in
//	         the allocation runs
//	         ... Sweep ...
//	pause 3  Finish, settle the allocation contexts, triggers, controller
//	         transition (SELECT scoring, PRUNE bookkeeping), OnGC
//
// Exhaustion-driven collections (allocSlow) take the one-pause STW form in
// both mark modes: they run because the heap is full, so there is no
// mutator progress to protect.
func (v *VM) collectConcurrent() gc.Result {
	var (
		cy     *gc.Cycle
		pause1 time.Duration
	)
	// Pause 1 — snapshot. Each pause body holds the world via its own defer
	// so a panicking callback cannot leave the world stopped.
	func() {
		t0 := time.Now()
		v.stopTheWorld()
		defer v.startTheWorld()
		plan := v.preparePlan()
		cy = v.collector.StartConcurrent(plan)
		v.armSATB()
		v.gcActive.Store(true)
		pause1 = time.Since(t0)
	}()

	// The closure over the snapshot runs with the world started; at
	// GOMAXPROCS=1 its workers interleave with mutators through the Go
	// scheduler. Mutators may allocate (into slots the start marked, or
	// above its watermark) and overwrite references (logged by the SATB
	// barrier) freely.
	cy.Mark()

	// Pause 2 — final remark: hand the marker everything the deletion
	// barriers logged, and let it re-scan the roots and finish the closure.
	// Any fault — a detected barrier drop, a worker panic, an abort — makes
	// Remark clear the mark bitmap and re-run the whole closure serially
	// under this pause: exactly an STW cycle, just inside a longer pause.
	// The re-run's clear also drops the marks of the free slots mutators
	// took into their runs during Mark; they are marked again here, so a
	// birth in one during the sweep below is spared.
	pause2 := func() time.Duration {
		t0 := time.Now()
		v.stopTheWorld()
		defer v.startTheWorld()
		grays := v.drainSATB()
		cause := ""
		if v.satbDropped.Load() {
			cause = "satb-drop"
		}
		cy.Remark(grays, cause)
		if cy.Degraded() {
			v.heap.MarkRuns(v.allocContexts())
		}
		if v.inj.Should(faultinject.RemarkStall) {
			// A remark that is slow to finish: stretches this pause without
			// changing any observable result.
			safepointStall()
		}
		if cy.Mode() == gc.ModePrune && v.inj.Should(faultinject.PruneRemarkStall) {
			// A slow deferred-poisoning verification pass: stretches the
			// PRUNE final pause without changing any observable result.
			safepointStall()
		}
		return time.Since(t0)
	}()

	// Concurrent sweep: unmarked objects are unreachable (the SATB
	// argument), so reclaiming them under the shard locks is invisible to
	// mutators. Finalizers run here, outside any pause.
	cy.Sweep()

	// Pause 3 — close out the cycle.
	t0 := time.Now()
	v.stopTheWorld()
	defer v.startTheWorld()
	// Mutators allocated through the mark and the sweep: the closing
	// bookkeeping needs their counts in the heap.
	v.flushRuns()
	v.gcActive.Store(false)
	res := cy.Finish()
	return v.finishCollect(res, []time.Duration{pause1, pause2}, t0)
}
