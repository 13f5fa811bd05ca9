package heap

import "sync/atomic"

// The mark bitmap: one bit per table entry, kept in the entry's chunk
// (chunk.marks) and created with it, so it covers every ID the allocator
// can hand out and never grows or moves under a marker. A set bit means
// "reached by the current cycle": claimed by a tracer worker, or a slot
// that was free when the cycle started (MarkFreeSlots). A cycle clears the
// bitmap and marks the free slots in its start pause.
//
// Only the collector writes the bitmap: a birth never does. Tracer workers
// that mark side by side claim with a CAS loop; a worker marking alone, and
// the pause and sweep writes, use plain stores.

// markWords is the number of bitmap words per chunk.
const markWords = chunkSize / 64

// markWord returns the bitmap word that holds id's bit; c is id's chunk.
func (c *chunk) markWord(id ObjectID) *uint64 { return &c.marks[id>>6&(markWords-1)] }

// markBit returns id's bit in its bitmap word.
func markBit(id ObjectID) uint64 { return 1 << (id & 63) }

// Mark sets id's mark bit and reports whether this call set it, which is
// how tracer workers claim an object so that exactly one scans it. cc must
// cover id's chunk: a GetCached of a reference into that chunk refreshes
// it. The bit is set by a CAS loop, or, when owned, by a load and a plain
// store: owned is only for a marker no other marker runs beside (mutators
// never write the bitmap). It inlines (make bench-smoke checks).
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

// MarkFreeSlots sets the mark bit of every slot on a shard free list: the
// start pause's pre-mark, right after ClearMarks, with every allocation
// context settled. A slot a mutator takes from a free list while the cycle
// runs is then already marked, so its birth writes no bit and the sweep,
// which reads the entries of clear bits only, never sees it. Call with no
// mutator or marker running. A run of entries in the same bitmap word —
// the sweep frees in ascending order — costs one store.
func (h *Heap) MarkFreeSlots() {
	t := *h.chunks.Load()
	for i := range h.shards {
		var wi ObjectID // the word of the IDs in bits
		var bits uint64
		for _, id := range h.shards[i].free {
			if id>>6 != wi {
				if bits != 0 {
					*t[wi>>(chunkShift-6)].markWord(wi << 6) |= bits
				}
				wi, bits = id>>6, 0
			}
			bits |= markBit(id)
		}
		if bits != 0 {
			*t[wi>>(chunkShift-6)].markWord(wi << 6) |= bits
		}
	}
}

// MarkRuns sets the mark bit of every unused slot in the contexts' runs. A
// degraded concurrent cycle calls it after the serial re-run's ClearMarks,
// which also cleared the pre-marks of the slots mutators took into their
// runs during Mark. Call with no mutator or marker running.
func (h *Heap) MarkRuns(cs []*AllocContext) {
	for _, c := range cs {
		for _, id := range c.run[c.next:c.n] {
			*h.chunkAt(int(id >> chunkShift)).markWord(id) |= markBit(id)
		}
	}
}
