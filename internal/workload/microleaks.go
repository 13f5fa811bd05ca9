package workload

import (
	"leakpruning/internal/heap"
	"leakpruning/internal/vm"
)

// This file holds the three third-party microbenchmark leaks of Table 1:
// ListLeak and SwapLeak (tolerated indefinitely by leak pruning) and
// DualLeak (live heap growth, not tolerable by any semantics-preserving
// approach).

func init() {
	register("listleak", true, func() Program { return newListLeak() })
	register("swapleak", true, func() Program { return newSwapLeak() })
	register("dualleak", true, func() Program { return newDualLeak() })
}

// ---------------------------------------------------------------------------
// ListLeak: the simplest leak — a growing linked list the program never
// reads again. Every byte of growth is dead, so leak pruning repeatedly
// selects and prunes the ListNode → ListNode edge and runs indefinitely.

type listLeak struct {
	node    heap.ClassID
	payload heap.ClassID
	scratch heap.ClassID
	head    int
}

func newListLeak() *listLeak { return &listLeak{} }

func (p *listLeak) Name() string { return "listleak" }
func (p *listLeak) Description() string {
	return "microbenchmark: unbounded list push with no later access (all growth dead)"
}
func (p *listLeak) DefaultHeap() uint64 { return 8 << 20 }

const (
	listLeakNodesPerIter = 50
	listLeakPayloadBytes = 400
)

func (p *listLeak) Setup(t *vm.Thread) {
	v := t.VM()
	p.node = v.DefineClass("ListNode", 2, 0) // next, payload
	p.payload = v.DefineClass("ListPayload", 0, listLeakPayloadBytes)
	p.scratch = v.DefineClass("ListScratch", 0, 64)
	p.head = v.AddGlobal()
}

func (p *listLeak) Iterate(t *vm.Thread, iter int) bool { return held(t, iter, p.iterate) }

func (p *listLeak) iterate(t *vm.Thread, iter int) bool {
	t.InFrame(1, func(f *vm.Frame) {
		for j := 0; j < listLeakNodesPerIter; j++ {
			node := t.New(p.node)
			f.Set(0, node)
			data := t.New(p.payload)
			t.Store(node, 1, data)
			t.Store(node, 0, t.LoadGlobal(p.head))
			t.StoreGlobal(p.head, node)
		}
	})
	churn(t, p.scratch, 8)
	return false
}

// ---------------------------------------------------------------------------
// SwapLeak: buffers are retired into a chain that is never read (dead
// growth), while a small session structure is live but touched only every
// sessionTouchPeriod iterations. The default algorithm protects the session
// (its edge types acquire a high maxStaleUse on first reuse) and prunes the
// retired chain indefinitely; the most-stale baseline eventually prunes the
// very stale — but live — session parts and the program traps on its next
// session use (Table 2's SwapLeak row).

type swapLeak struct {
	buffer  heap.ClassID
	chunk   heap.ClassID
	retired heap.ClassID
	session heap.ClassID
	part    heap.ClassID

	scratch heap.ClassID

	retiredG int
	sessionG int
}

func newSwapLeak() *swapLeak { return &swapLeak{} }

func (p *swapLeak) Name() string { return "swapleak" }
func (p *swapLeak) Description() string {
	return "microbenchmark: swapped buffers retired into an unread chain, plus a rarely-used live session"
}
func (p *swapLeak) DefaultHeap() uint64 { return 8 << 20 }

const (
	swapBuffersPerIter = 8
	swapChunkBytes     = 2000
	sessionParts       = 4
	sessionTouchPeriod = 150
)

func (p *swapLeak) Setup(t *vm.Thread) {
	v := t.VM()
	p.buffer = v.DefineClass("Buffer", 1, 64)
	p.chunk = v.DefineClass("DataChunk", 0, swapChunkBytes)
	p.retired = v.DefineClass("RetiredEntry", 2, 0) // buffer, next
	p.session = v.DefineClass("Session", sessionParts, 256)
	p.part = v.DefineClass("SessionPart", 0, 512)
	p.scratch = v.DefineClass("SwapScratch", 0, 64)
	p.retiredG = v.AddGlobal()
	p.sessionG = v.AddGlobal()

	t.InFrame(1, func(f *vm.Frame) {
		s := t.New(p.session)
		f.Set(0, s)
		for i := 0; i < sessionParts; i++ {
			part := t.New(p.part)
			t.Store(s, i, part)
		}
		t.StoreGlobal(p.sessionG, s)
	})
}

func (p *swapLeak) Iterate(t *vm.Thread, iter int) bool { return held(t, iter, p.iterate) }

func (p *swapLeak) iterate(t *vm.Thread, iter int) bool {
	t.InFrame(2, func(f *vm.Frame) {
		for j := 0; j < swapBuffersPerIter; j++ {
			buf := t.New(p.buffer)
			f.Set(0, buf)
			chunk := t.New(p.chunk)
			t.Store(buf, 0, chunk)
			entry := t.New(p.retired)
			f.Set(1, entry)
			t.Store(entry, 0, buf)
			t.Store(entry, 1, t.LoadGlobal(p.retiredG))
			t.StoreGlobal(p.retiredG, entry)
		}
	})
	churn(t, p.scratch, 8)
	if iter%sessionTouchPeriod == 0 {
		s := t.LoadGlobal(p.sessionG)
		for i := 0; i < sessionParts; i++ {
			t.Load(s, i) // touch every live session part
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// DualLeak: the growth is live — the program walks the whole list every
// iteration, so nothing is ever stale, no reference is a candidate, and
// leak pruning (like every semantics-preserving approach) cannot help.

type dualLeak struct {
	node    heap.ClassID
	payload heap.ClassID
	scratch heap.ClassID
	head    int
}

func newDualLeak() *dualLeak { return &dualLeak{} }

func (p *dualLeak) Name() string { return "dualleak" }
func (p *dualLeak) Description() string {
	return "microbenchmark: unbounded list the program fully traverses each iteration (live growth)"
}
func (p *dualLeak) DefaultHeap() uint64 { return 8 << 20 }

const (
	dualNodesPerIter = 30
	dualPayloadBytes = 300
)

func (p *dualLeak) Setup(t *vm.Thread) {
	v := t.VM()
	p.node = v.DefineClass("DualNode", 2, 0)
	p.payload = v.DefineClass("DualPayload", 0, dualPayloadBytes)
	p.scratch = v.DefineClass("DualScratch", 0, 64)
	p.head = v.AddGlobal()
}

func (p *dualLeak) Iterate(t *vm.Thread, iter int) bool { return held(t, iter, p.iterate) }

func (p *dualLeak) iterate(t *vm.Thread, iter int) bool {
	t.InFrame(1, func(f *vm.Frame) {
		for j := 0; j < dualNodesPerIter; j++ {
			node := t.New(p.node)
			f.Set(0, node)
			data := t.New(p.payload)
			t.Store(node, 1, data)
			t.Store(node, 0, t.LoadGlobal(p.head))
			t.StoreGlobal(p.head, node)
		}
	})
	churn(t, p.scratch, 10)
	// Walk the whole list, touching every node and payload: this is what
	// keeps the leak live (the paper's SPECjbb2000 has the same property).
	cur := t.LoadGlobal(p.head)
	for !cur.IsNull() {
		t.Load(cur, 1)
		cur = t.Load(cur, 0)
	}
	return false
}
