package vm

import (
	"leakpruning/internal/faultinject"
	"leakpruning/internal/heap"
)

// Snapshot-at-the-beginning (SATB) deletion-barrier buffers. While a
// mostly-concurrent mark is in flight, every Store that overwrites a heap
// reference logs the evicted value into the storing thread's satbBuffer;
// the final-remark pause drains every buffer and re-seeds the closure from
// the logged references. That preserves the tri-color invariant in its
// snapshot form: an object reachable when the cycle's roots were
// snapshotted either keeps a path the marker can still traverse, or the
// edge that was cut shows up in some buffer. Either way the marker finds
// it, so the concurrent sweep can only reclaim objects that were already
// unreachable at the snapshot (and nothing allocated since: a birth takes
// a slot the start pause marked, one the sweep has passed, or one above
// the watermark the sweep stops at).
//
// The buffers piggyback on the safepoint protocol exactly like the TLAB
// contexts: only the owning thread touches its buffer, and it does so only
// inside critical regions, so the collector may read and reset every buffer
// while the world is stopped without any lock. The one shared structure is
// the VM's overflow list, which takes full buffers (a spill every
// satbBufCap logged deletions) and the final flush of exiting threads; it
// is guarded by a mutex that is only ever held briefly and never across a
// safepoint.

// satbBufCap is the per-thread buffer capacity; a full buffer spills to the
// VM's overflow list.
const satbBufCap = 256

// satbBuffer is one thread's deletion-barrier log. It is deliberately
// self-contained (no VM or Thread state) so the fuzz harness can drive it
// against a shadow model.
type satbBuffer struct {
	entries []heap.Ref
}

// log appends one overwritten reference. When the buffer reaches capacity
// the whole batch is handed to spill and the buffer empties; entries are
// never silently discarded.
func (b *satbBuffer) log(r heap.Ref, spill func([]heap.Ref)) {
	b.entries = append(b.entries, r)
	if len(b.entries) >= satbBufCap {
		b.flush(spill)
	}
}

// flush hands every buffered entry to spill (as a copy, so the buffer's
// backing array can be reused) and empties the buffer. No-op when empty.
func (b *satbBuffer) flush(spill func([]heap.Ref)) {
	if len(b.entries) == 0 {
		return
	}
	out := make([]heap.Ref, len(b.entries))
	copy(out, b.entries)
	b.entries = b.entries[:0]
	spill(out)
}

// take returns the buffered entries and leaves the buffer empty. Collector
// side only: the caller has stopped the world, so no copy is needed — the
// thread cannot be mid-append.
func (b *satbBuffer) take() []heap.Ref {
	out := b.entries
	b.entries = nil
	return out
}

// satbLog is the deletion barrier's out-of-line body: called by Store with
// the reference it evicted from a heap slot. Runs inside the calling
// thread's critical region.
func (t *Thread) satbLog(old heap.Ref) {
	if old.IsNull() || old.IsPoisoned() {
		// Nothing was deleted, or the deleted edge pointed at an object the
		// controller already pruned — nothing for the marker to preserve.
		return
	}
	v := t.vm
	if v.inj.Should(faultinject.SATBBarrierDrop) {
		// The entry is lost but the loss is detected (modelling a barrier
		// whose buffer write failed): flag the cycle so the remark pause
		// degrades to a fresh fully-STW closure instead of trusting an
		// incomplete log.
		v.satbDropped.Store(true)
		return
	}
	t.satb.log(old.Untagged(), v.spillSATB)
}

// spillSATB appends a full buffer's batch to the VM's overflow list. Called
// from inside a mutator critical region (Store's slow-slow path) and from
// Thread.Exit; the mutex is never held across a safepoint, so it cannot
// deadlock against a stop request.
func (v *VM) spillSATB(batch []heap.Ref) {
	v.satbMu.Lock()
	v.satbOverflow = append(v.satbOverflow, batch...)
	v.satbMu.Unlock()
}

// armSATB turns on the deletion barrier for every registered thread. Caller
// has stopped the world (pause 1 of a concurrent cycle), so the per-thread
// flags are plain writes, ordered against the threads' resumption by the
// safepoint protocol — the same contract flushTLABs relies on. Threads
// registered while the cycle runs inherit the barrier from satbArmed, which
// shares threadMu with the registration path.
func (v *VM) armSATB() {
	v.satbDropped.Store(false)
	v.threadMu.Lock()
	v.satbArmed = true
	for t := range v.threads {
		t.satbOn = true
	}
	v.threadMu.Unlock()
}

// drainSATB disarms every thread's deletion barrier and returns all logged
// references: the overflow list plus each thread's private buffer. Caller
// has stopped the world (the final-remark pause).
func (v *VM) drainSATB() []heap.Ref {
	if v.inj.Should(faultinject.SATBBarrierDrop) {
		// Drain-time arm of the barrier-drop fault: a whole buffer is deemed
		// lost as it is collected (the per-Store arm above needs racing
		// mutators to fire; this one exercises the degrade path even in
		// single-threaded runs). The grays are still handed over — degrading
		// on a conservative superset is always sound.
		v.satbDropped.Store(true)
	}
	v.satbMu.Lock()
	grays := v.satbOverflow
	v.satbOverflow = nil
	v.satbMu.Unlock()
	v.threadMu.Lock()
	v.satbArmed = false
	for t := range v.threads {
		t.satbOn = false
		grays = append(grays, t.satb.take()...)
	}
	v.threadMu.Unlock()
	return grays
}
