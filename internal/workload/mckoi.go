package workload

import (
	"fmt"

	"leakpruning/internal/heap"
	"leakpruning/internal/vm"
)

// Mckoi reproduces the Mckoi SQL Database thread leak (§6): the server
// leaks a worker thread per connection. Thread stacks are GC roots that
// this runtime — like the paper's implementation — cannot reclaim, so the
// per-thread connection state pinned by each leaked stack is live forever.
// What leak pruning *can* reclaim is the dead working memory each leaked
// thread's state still references, which is why the paper reports a modest
// 1.6× extension ("Some reclaimed").

func init() {
	register("mckoi", true, func() Program { return newMckoi() })
}

type mckoi struct {
	state  heap.ClassID // ConnectionState: workBuffer (pinned by the stack)
	buffer heap.ClassID // WorkBuffer: rows (dead after the query finishes)
	rows   heap.ClassID // BufferRows
	temp   heap.ClassID // QueryTemp (ordinary transient garbage)

	leaked int
}

func newMckoi() *mckoi { return &mckoi{} }

func (p *mckoi) Name() string { return "mckoi" }
func (p *mckoi) Description() string {
	return "Mckoi SQL Database thread leak: leaked thread stacks pin connection state; their work buffers are dead"
}
func (p *mckoi) DefaultHeap() uint64 { return 8 << 20 }

const (
	mckoiStateBytes  = 12288
	mckoiBufferBytes = 4096
	mckoiRowBytes    = 4096
	mckoiTempBytes   = 512
	mckoiTempsPer    = 16
)

func (p *mckoi) Setup(t *vm.Thread) {
	v := t.VM()
	p.state = v.DefineClass("ConnectionState", 1, mckoiStateBytes)
	p.buffer = v.DefineClass("WorkBuffer", 1, mckoiBufferBytes)
	p.rows = v.DefineClass("BufferRows", 0, mckoiRowBytes)
	p.temp = v.DefineClass("QueryTemp", 0, mckoiTempBytes)
}

// Iterate stays per-op (no held region): it registers and drives a worker
// Thread from the calling goroutine.
func (p *mckoi) Iterate(t *vm.Thread, iter int) bool {
	// Serve one connection: ordinary transient query work...
	t.InFrame(1, func(f *vm.Frame) {
		for j := 0; j < mckoiTempsPer; j++ {
			f.Set(0, t.New(p.temp))
		}
	})

	// ...then leak the worker thread. The thread is never exited, so its
	// stack frame (holding the connection state) remains a root forever.
	// The work buffer hanging off the state is dead once the query is done:
	// ConnectionState → WorkBuffer is a prunable heap edge even though the
	// state itself is pinned by the unreclaimable stack.
	t.InFrame(2, func(f *vm.Frame) {
		state := t.New(p.state)
		f.Set(0, state)
		buf := t.New(p.buffer)
		t.Store(state, 0, buf)
		rows := t.New(p.rows)
		t.Store(buf, 0, rows)

		worker := t.VM().NewThread(fmt.Sprintf("mckoi-worker-%d", p.leaked))
		p.leaked++
		wf := worker.PushFrame(1)
		wf.Set(0, state)
		// The worker blocks forever: never exited, never popped.
	})
	return false
}
