package heap

import "sync/atomic"

// The mark bitmap: one bit per table entry, kept in the entry's chunk
// (chunk.marks) and created with it, so it covers every ID the allocator
// can hand out and never grows or moves under a marker. A set bit means
// "reached by the current cycle": claimed by a tracer worker, born black,
// or a free slot the sweep need not read (MarkFreeSlots). A cycle clears
// the bitmap in its start pause (ClearMarks).
//
// Every write to a bitmap word while a mutator can run is a CAS loop (Go
// 1.22 has no atomic.OrUint64): born-black bits share words with the bits
// a marker claims. Only the one marker of a stop-the-world closure may use
// the plain test-and-set (Mark's owned form).

// markWords is the number of bitmap words per chunk.
const markWords = chunkSize / 64

// markWord returns the bitmap word that holds id's bit; c is id's chunk.
func (c *chunk) markWord(id ObjectID) *uint64 { return &c.marks[id>>6&(markWords-1)] }

// markBit returns id's bit in its bitmap word.
func markBit(id ObjectID) uint64 { return 1 << (id & 63) }

// setMarks sets bits in *w with a CAS loop.
func setMarks(w *uint64, bits uint64) {
	for {
		old := atomic.LoadUint64(w)
		if old|bits == old || atomic.CompareAndSwapUint64(w, old, old|bits) {
			return
		}
	}
}

// Mark sets id's mark bit and reports whether this call set it, which is
// how tracer workers claim an object so that exactly one scans it. cc must
// cover id's chunk: a GetCached of a reference into that chunk refreshes
// it. The bit is set by a CAS loop, or, when owned, by a load and a plain
// store: owned is only for the one marker of a stop-the-world closure, with
// no mutator running and no other marker writing the bitmap. It inlines
// (make bench-smoke checks).
func (cc *ChunkCache) Mark(id ObjectID, owned bool) bool {
	// Spelled out rather than markWord and markBit, which would take
	// traceWorker.claim past the inliner's budget.
	w, bit := &cc.t[id>>chunkShift].marks[id>>6&(markWords-1)], uint64(1)<<(id&63)
	for {
		old := atomic.LoadUint64(w)
		if old&bit != 0 {
			return false
		}
		if owned {
			*w = old | bit
			return true
		}
		if atomic.CompareAndSwapUint64(w, old, old|bit) {
			return true
		}
	}
}

// MarkBit reports whether id's mark bit is set.
func (h *Heap) MarkBit(id ObjectID) bool {
	c := h.chunkAt(int(id >> chunkShift))
	return c != nil && atomic.LoadUint64(c.markWord(id))&markBit(id) != 0
}

// ClearMarks clears every mark bit: a cycle's start, and a degraded
// Remark before its serial re-run. Call with no mutator or marker running.
func (h *Heap) ClearMarks() {
	for _, c := range *h.chunks.Load() {
		clear(c.marks[:])
	}
}

// SetAllocBlack arms or disarms black allocation: while armed, every new
// object's mark bit is set before its size word publishes it, so the
// cycle in flight neither traces nor sweeps it. The VM arms it in a
// concurrent cycle's first pause and disarms it in the last.
func (h *Heap) SetAllocBlack(on bool) { h.allocBlack.Store(on) }

// MarkFreeSlots sets the mark bit of every slot on a shard free list. A
// dead object is never on a free list, so a sweep that skips these slots
// misses none of the dead, and it learns that they are free from the
// lists' dense arrays instead of from one table entry each. A run of
// entries in the same bitmap word costs one CAS.
func (h *Heap) MarkFreeSlots() {
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		// Under the lock: a racing carve publishes its chunk before it
		// pushes the chunk's IDs.
		t := *h.chunks.Load()
		set := func(wi ObjectID, bits uint64) {
			if bits != 0 {
				setMarks(t[wi>>(chunkShift-6)].markWord(wi<<6), bits)
			}
		}
		var wi ObjectID // the word of the IDs in bits
		var bits uint64
		for _, id := range s.free {
			if id>>6 != wi {
				set(wi, bits)
				wi, bits = id>>6, 0
			}
			bits |= markBit(id)
		}
		set(wi, bits)
		s.mu.Unlock()
	}
}
