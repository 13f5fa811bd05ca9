package gc

import (
	"sync/atomic"

	"leakpruning/internal/heap"
)

// workBatch is the unit of work exchanged between tracer workers: a batch
// of marked object IDs awaiting scanning. Batching keeps the §4.5
// shared-pool semantics (workers donate and acquire whole batches, not
// single objects) while the deque below makes the exchange lock-free.
type workBatch struct {
	ids []heap.ObjectID
}

// wsDeque is a Chase–Lev work-stealing deque of work batches. The owning
// worker pushes and pops at the bottom without locks; other workers steal
// from the top with a single CAS. The ring buffer grows on the owner's
// side only and is published through an atomic pointer, so thieves always
// see a consistent (possibly stale, then CAS-rejected) view.
//
// Go's sync/atomic operations are sequentially consistent, which satisfies
// the fences the original algorithm needs: pop's bottom store is visible
// before its top load, and steal's element read happens before its CAS.
//
// The three words below are everything another worker reads of this one;
// traceWorker keeps them on cache lines of their own.
type wsDeque struct {
	bottom atomic.Int64
	top    atomic.Int64
	ring   atomic.Pointer[dequeRing]
}

type dequeRing struct {
	mask  int64
	slots []atomic.Pointer[workBatch]
}

const initialDequeCap = 64 // must be a power of two

func newRing(capacity int64) *dequeRing {
	return &dequeRing{mask: capacity - 1, slots: make([]atomic.Pointer[workBatch], capacity)}
}

// reset empties the deque for a new closure, keeping the ring it has grown.
// Only while no worker is running.
func (d *wsDeque) reset() {
	if d.ring.Load() == nil {
		d.ring.Store(newRing(initialDequeCap))
	}
	d.bottom.Store(0)
	d.top.Store(0)
}

// push appends a batch at the bottom. Only the owning worker may call it.
func (d *wsDeque) push(b *workBatch) {
	bot := d.bottom.Load()
	top := d.top.Load()
	r := d.ring.Load()
	if bot-top >= int64(len(r.slots)) {
		r = d.grow(r, top, bot)
	}
	r.slots[bot&r.mask].Store(b)
	d.bottom.Store(bot + 1)
}

// grow doubles the ring, copying the live window. Owner only; thieves keep
// reading the old ring until they reload, which is safe because the old
// ring's live slots still hold the same batches.
func (d *wsDeque) grow(old *dequeRing, top, bot int64) *dequeRing {
	r := newRing(int64(len(old.slots)) * 2)
	for i := top; i < bot; i++ {
		r.slots[i&r.mask].Store(old.slots[i&old.mask].Load())
	}
	d.ring.Store(r)
	return r
}

// pop removes the most recently pushed batch (LIFO). Owner only. The
// only synchronization needed is for the final element, which a thief may
// be racing for: both sides resolve it with a CAS on top.
func (d *wsDeque) pop() *workBatch {
	bot := d.bottom.Load() - 1
	r := d.ring.Load()
	d.bottom.Store(bot)
	top := d.top.Load()
	if top > bot {
		// Empty: restore bottom.
		d.bottom.Store(top)
		return nil
	}
	b := r.slots[bot&r.mask].Load()
	if bot > top {
		return b
	}
	// Last element: race thieves for it.
	if !d.top.CompareAndSwap(top, top+1) {
		b = nil // a thief got it
	}
	d.bottom.Store(top + 1)
	return b
}

// steal removes the oldest batch (FIFO end). Any worker may call it. A nil
// return means either the deque looked empty or the CAS lost a race — the
// caller treats both as "try elsewhere".
func (d *wsDeque) steal() *workBatch {
	top := d.top.Load()
	bot := d.bottom.Load()
	if top >= bot {
		return nil
	}
	r := d.ring.Load()
	b := r.slots[top&r.mask].Load()
	if !d.top.CompareAndSwap(top, top+1) {
		return nil
	}
	return b
}

// size is the number of queued batches. It is exact when the owner is
// quiescent, which is the only case termination detection and the root
// deal's helper count rely on.
func (d *wsDeque) size() int {
	return max(0, int(d.bottom.Load()-d.top.Load()))
}

func (d *wsDeque) empty() bool { return d.size() == 0 }
