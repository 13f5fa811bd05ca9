package vm

import (
	"sync/atomic"

	"leakpruning/internal/heap"
)

// Allocation-trace record helpers. Every site in the mutator hot paths is
// a single `t.rec != nil` branch (or one nil-safe method call) when
// recording is off. Streams are written only by the owning thread inside
// its critical regions and drained at stop-the-world
// (trace.Recorder.DrainAll in preparePlan).

// recordAlloc records a successful allocation, distinguishing the class's
// default shape (the common case, two varints) from a WithRefSlots /
// WithScalarBytes override.
func (t *Thread) recordAlloc(class heap.ClassID, opts []heap.AllocOption, ref heap.Ref) {
	if t.rec == nil {
		return
	}
	c := t.vm.classes.Get(class)
	if len(opts) == 0 {
		t.rec.Alloc(uint32(class), uint64(ref.ID()))
		return
	}
	refSlots, scalarBytes := t.vm.heap.ResolveShape(class, opts)
	if refSlots == c.RefSlots && scalarBytes == c.ScalarBytes {
		t.rec.Alloc(uint32(class), uint64(ref.ID()))
		return
	}
	t.rec.AllocShaped(uint32(class), uint64(ref.ID()), refSlots, scalarBytes)
}

// recordAllocFail records the allocation that exhausted memory.
func (t *Thread) recordAllocFail(class heap.ClassID, opts []heap.AllocOption) {
	if t.rec == nil {
		return
	}
	c := t.vm.classes.Get(class)
	refSlots, scalarBytes := t.vm.heap.ResolveShape(class, opts)
	if refSlots == c.RefSlots && scalarBytes == c.ScalarBytes {
		t.rec.AllocFail(uint32(class))
		return
	}
	t.rec.AllocFailShaped(uint32(class), refSlots, scalarBytes)
}

// recordFrameSet performs a frame-slot write with recording: unlike the
// plain atomic store, it runs inside a critical region so the stream
// append cannot race a stop-the-world drain. The slot may belong to
// another thread's frame (Mckoi hands a frame to its workers); the event
// is recorded on the owning thread's stream against its current stack, so
// replay finds the frame at the same depth.
func (t *Thread) recordFrameSet(f *Frame, i int, r heap.Ref) {
	t.beginOp()
	atomic.StoreUint64(&f.slots[i], uint64(r.Untagged()))
	for d := len(t.frames) - 1; d >= 0; d-- {
		if t.frames[d] == f {
			t.rec.FrameSet(len(t.frames)-1-d, i, uint64(r.ID()))
			break
		}
	}
	t.endOp()
}

// MarkIteration records an iteration-boundary mark with a wall-clock delta
// — the replayer's pacing and progress signal. A no-op unless the VM is
// recording; the harness calls it once per workload iteration.
func (t *Thread) MarkIteration(iter int) {
	if t.rec == nil {
		return
	}
	t.beginOp()
	t.rec.Iter(iter)
	t.endOp()
}
