package vm

import (
	"fmt"

	"leakpruning/internal/heap"
)

// VM-level invariant auditor. heap.Audit cross-checks the allocator's
// accounting against the object table; verifyLocked layers the VM-visible
// invariants on top:
//
//   - no freed slot is reachable from the roots (thread frames + globals);
//   - every reference held by a live object either targets a live object or
//     is poison-tagged — a dangling reference without poison is exactly the
//     use-after-free leak pruning's poisoning discipline exists to prevent;
//   - immediately after a full collection, every mark bit below the
//     sweep's watermark is set: a live object's by the closure, a free
//     slot's by the start pause, a freed one's by the sweep (sweep
//     completeness: a clear bit is a slot the sweep skipped).
//
// The mark check is only meaningful in the window after a collection and
// before the next cycle clears the bitmap, so only the AuditEveryGC path
// (which runs inside the collection's closing stop-the-world pause)
// enables it; the public Verify, callable at any quiescent point, skips
// it.

// Verify stops the world, audits the heap's internal accounting
// (heap.Audit) plus the VM-level reachability and poisoning invariants, and
// returns the violations found (empty means sound). It also records the
// report for LastAudit and the Stats counters.
func (v *VM) Verify() []string {
	v.stopTheWorld()
	defer v.startTheWorld()
	return v.verifyLocked(0)
}

// verifyLocked runs the audit. Caller has stopped the world. A nonzero
// marksBelow, the last sweep's watermark, additionally asserts that every
// mark bit under it but ID 0's is set; pass it only when no cycle has
// started since that sweep. Objects born during the cycle in slots above
// the watermark were not swept and are exempt.
func (v *VM) verifyLocked(marksBelow heap.ObjectID) []string {
	v.flushTLABs()
	violations := v.heap.Audit()
	for id := heap.ObjectID(1); id < marksBelow; id++ {
		if !v.heap.MarkBit(id) {
			violations = append(violations,
				fmt.Sprintf("slot %d below the sweep's watermark %d has no mark bit", id, marksBelow))
		}
	}

	// Ground truth: the set of live object IDs.
	next := v.heap.MaxID()
	live := make([]bool, next)
	v.heap.ForEach(func(id heap.ObjectID, obj *heap.Object) { live[id] = true })

	// Dangling-reference sweep: every outgoing reference of every live
	// object must be null, poisoned, or aimed at a live object.
	v.heap.ForEach(func(id heap.ObjectID, obj *heap.Object) {
		for slot, n := 0, obj.NumRefs(); slot < n; slot++ {
			r := obj.Ref(slot)
			if r.IsNull() || r.IsPoisoned() {
				continue
			}
			if tid := r.ID(); tid >= next || !live[tid] {
				violations = append(violations,
					fmt.Sprintf("object %d slot %d holds un-poisoned dangling reference to freed slot %d",
						id, slot, r.ID()))
			}
		}
	})

	// Root reachability: walk the non-poisoned transitive closure from the
	// roots and assert it never enters a freed slot. (Roots are untagged,
	// but heap references along the way may carry the stale tag.)
	visited := make([]bool, next)
	var stack []heap.ObjectID
	enter := func(r heap.Ref, from string) {
		if r.IsNull() || r.IsPoisoned() {
			return
		}
		id := r.ID()
		if id >= next || !live[id] {
			violations = append(violations,
				fmt.Sprintf("freed slot %d reachable from %s", id, from))
			return
		}
		if !visited[id] {
			visited[id] = true
			stack = append(stack, id)
		}
	}
	(*rootVisitor)(v).VisitRoots(func(r heap.Ref) { enter(r, "roots") })
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		obj, ok := v.heap.Lookup(id)
		if !ok {
			continue // already reported by enter
		}
		for slot, n := 0, obj.NumRefs(); slot < n; slot++ {
			enter(obj.Ref(slot), fmt.Sprintf("object %d slot %d", id, slot))
		}
	}

	v.auditsRun.Add(1)
	v.auditViolations.Add(uint64(len(violations)))
	v.auditMu.Lock()
	// Non-nil even when clean: LastAudit distinguishes "never audited"
	// (nil) from "last audit found nothing" (empty).
	v.lastAudit = append([]string{}, violations...)
	if len(violations) > 0 && v.firstBadAudit == nil {
		v.firstBadAudit = v.lastAudit
	}
	v.auditMu.Unlock()
	return violations
}
