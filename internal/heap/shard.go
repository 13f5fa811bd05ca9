package heap

import (
	"sort"
	"sync/atomic"
)

// The free list and per-context slot runs.
//
// The object table's recyclable slots sit on one LIFO free list, guarded by
// the heap's freeMu. Everything else is heap-wide atomics: the used-byte
// counter (charged against the limit), the fresh-ID cursor and the
// allocation account (bytes and objects allocated and freed).
//
// Who owns a slot when. A dead slot sits on the free list (owned by freeMu)
// or in exactly one AllocContext's run (owned by the context's goroutine,
// no lock). refillRun moves up to freshBlock slots from the list to a
// context inside one critical section, popped LIFO, and when the list has
// none carves freshBlock fresh IDs straight into the run, in the order a
// pop would have given them. Allocating from
// the run then takes no mutex: the context initialises the object with
// plain stores and counts the allocation in a plain word of its own. A
// Freer pushes a dead slot back onto the list, a batch per lock.
//
// What settle restores. Refill, ReleaseContext and the VM's flushes settle
// the context: its pending word is folded into the heap's account, and the
// run's unused slots are pushed back onto the list in reverse pop order. A
// single context that allocates, settles and refills therefore sees exactly
// the IDs a slot-at-a-time LIFO allocator would hand out — the free list
// between runs is what it would have been — which is what record/replay and
// the per-cycle live-set hashes rely on. Several contexts are settled
// newest run first (SettleContexts), so a fixed interleaving of threads
// gives a fixed free list whatever order the caller lists them in.
//
// What Stats means between settles. The used-byte counter is always
// current (it includes unspent TLAB quota). BytesAlloc, ObjectsAlloc and
// ObjectsUsed lag by whatever live contexts have not folded yet. A context
// counts its births in a plain word and publishes them (Publish) into its
// atomic pending word; AllocContext.AddPending supplies what is published,
// so a Stats plus every context's AddPending is exact once each owner has
// published, and after every context has been settled Stats alone is.
const (
	// freshBlock is how many never-used object IDs a refill carves from the
	// global cursor when the free list has no slot to recycle, and the
	// length of a context's slot run.
	freshBlock = 64

	// maxTLABBytes caps an AllocContext's reserved byte quota.
	maxTLABBytes = 8 << 10

	// pendingCountBits is the width of the object count in
	// AllocContext.pending; it must hold freshBlock (checked below).
	pendingCountBits = 8
)

const _ = uint(1<<pendingCountBits - 1 - freshBlock) // does not compile if a run's count could overflow its field

// AllocContext is a per-thread allocation context: a byte quota already
// reserved against the heap limit (TLAB-style, so the shared used-byte
// counter is touched roughly once per maxTLABBytes) and a private run of
// free slot IDs (so the free-list lock is taken once per freshBlock
// objects).
//
// A context must not be used from more than one goroutine at a time. Its
// unused quota counts toward BytesUsed, its unused slots are on no free
// list and its pending counts are not in Stats until ReleaseContext
// settles it; the VM does that for every thread at each stop-the-world
// flush.
type AllocContext struct {
	// births is the allocations the owner has made from runs since it last
	// published, as bytes<<pendingCountBits | objects: a plain word only
	// the owner writes, so a birth pays no locked instruction. pending is
	// what it has published since the last fold, in the same packing;
	// Publish moves births into it, and it is atomic so that Stats readers
	// on other goroutines can sum it (AddPending). Neither count can carry
	// into the bytes: every refill folds both, and a run has freshBlock
	// slots.
	births  uint64
	pending atomic.Uint64

	reserved uint64

	// run[next:n] are the unused slots of the current run, in the order the
	// free list popped them; seq is the run's heap-wide stamp.
	next, n uint32
	seq     uint64
	run     [freshBlock]ObjectID
}

// Reserved returns the context's unused byte quota (for tests and
// introspection).
func (c *AllocContext) Reserved() uint64 { return c.reserved }

// Publish makes the allocations the owner has made since its last publish
// visible to AddPending: one atomic add when there are any. Only the
// owner calls it, at the points where another goroutine may want an exact
// count (the VM: before a thread stores its safe state).
func (c *AllocContext) Publish() {
	if c.births != 0 {
		c.pending.Add(c.births)
		c.births = 0
	}
}

// AddPending adds the allocations the context has published since it was
// last settled to st, making a Stats snapshot exact while the context is
// live and its owner has published.
func (c *AllocContext) AddPending(st *Stats) {
	p := c.pending.Load()
	n := p & (1<<pendingCountBits - 1)
	st.BytesAlloc += p >> pendingCountBits
	st.ObjectsAlloc += n
	st.ObjectsUsed += n
}

// NewAllocContext returns an empty allocation context: its first
// allocation refills it.
func (h *Heap) NewAllocContext() AllocContext { return AllocContext{} }

// ReleaseContext settles the context (see the top of this file) and
// returns its unused byte quota to the heap. It is idempotent; the context
// remains usable (its next allocation refills).
func (h *Heap) ReleaseContext(c *AllocContext) {
	h.settle(c)
	if c.reserved > 0 {
		h.creditBytes(c.reserved)
		c.reserved = 0
	}
}

// SettleContexts settles several contexts in the one order that leaves the
// free list independent of the order the caller found them in: newest run
// first, so the runs go back in reverse of the order they were popped. Byte
// quotas stay reserved.
func (h *Heap) SettleContexts(cs []*AllocContext) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].seq > cs[j].seq })
	for _, c := range cs {
		h.settle(c)
	}
}

// ReleaseContexts is SettleContexts plus returning every context's unused
// byte quota, after which Stats and BytesUsed are exact.
func (h *Heap) ReleaseContexts(cs []*AllocContext) {
	h.SettleContexts(cs)
	for _, c := range cs {
		h.ReleaseContext(c)
	}
}

// creditBytes subtracts n from the shared used-byte counter.
func (h *Heap) creditBytes(n uint64) {
	if n != 0 {
		h.used.Add(^(n - 1))
	}
}

// tlabTarget is how many bytes beyond the immediate need a refill tries to
// reserve: enough to amortize the shared-counter CAS, small enough not to
// distort fullness on small heaps.
func (h *Heap) tlabTarget() uint64 {
	t := h.limit / 64
	if t > maxTLABBytes {
		t = maxTLABBytes
	}
	return t
}

// reserveExact charges exactly size bytes against the limit, or charges
// nothing and returns false.
func (h *Heap) reserveExact(size uint64) bool {
	for {
		cur := h.used.Load()
		if cur+size > h.limit {
			return false
		}
		if h.used.CompareAndSwap(cur, cur+size) {
			return true
		}
	}
}

// refill tops up the context's quota so at least size bytes are reserved,
// grabbing up to a TLAB's worth extra when the limit allows. It charges
// nothing and returns false when even the immediate need does not fit.
func (h *Heap) refill(c *AllocContext, size uint64) bool {
	need := size - c.reserved
	want := need + h.tlabTarget()
	for {
		cur := h.used.Load()
		if cur+need > h.limit {
			return false
		}
		grant := want
		if cur+grant > h.limit {
			grant = h.limit - cur
		}
		if h.used.CompareAndSwap(cur, cur+grant) {
			c.reserved += grant
			return true
		}
	}
}

// refillRun gives the context a fresh run of up to freshBlock slots: the
// free list's top entries, popped LIFO under one free-list lock, or, when
// the pop found nothing, a carve of freshBlock fresh IDs. The context must
// have no unused slots; its pending counts are folded first.
func (h *Heap) refillRun(c *AllocContext) {
	h.fold(c)
	h.freeMu.Lock()
	n := h.popRunLocked(c.run[:])
	h.freeMu.Unlock()
	if n == 0 {
		h.carve(&c.run)
		n = freshBlock
	}
	c.next, c.n = 0, uint32(n)
	c.seq = h.runSeq.Add(1)
	h.allocShardLocks.Add(1)
}

// settle folds the context's pending counts and, when the run has unused
// slots, pushes them back onto the free list in reverse pop order, so the
// list is what a slot-at-a-time allocator would have left. Entries that
// went live since they were popped (duplicates) are dropped and counted.
func (h *Heap) settle(c *AllocContext) {
	h.fold(c)
	if c.next == c.n {
		return
	}
	h.freeMu.Lock()
	for i := c.n; i > c.next; i-- {
		if id := c.run[i-1]; h.slot(id).Size() == 0 {
			h.free = append(h.free, id)
		} else {
			h.freeListRepairs.Add(1)
		}
	}
	h.freeMu.Unlock()
	c.next, c.n = 0, 0
	h.allocShardLocks.Add(1)
}

// fold moves the context's allocation counts, published or not, into the
// heap's account. The caller is the owner or has stopped it at a safepoint.
func (h *Heap) fold(c *AllocContext) {
	if p := c.pending.Swap(0) + c.births; p != 0 {
		c.births = 0
		h.bytesAlloc.Add(p >> pendingCountBits)
		h.objectsAlloc.Add(p & (1<<pendingCountBits - 1))
	}
}

// popRunLocked pops up to len(run) recyclable slots off the free list into
// run, in LIFO order, discarding (and counting) corrupt entries that name a
// live or unmaterialized slot. A duplicate of a still-dead slot passes here
// and is caught when the run reaches it (allocate). Caller holds freeMu.
func (h *Heap) popRunLocked(run []ObjectID) int {
	k := 0
	n := len(h.free)
	for n > 0 && k < len(run) {
		n--
		id := h.free[n]
		if obj := h.slot(id); obj == nil || obj.Size() != 0 {
			h.freeListRepairs.Add(1)
			continue
		}
		run[k] = id
		k++
	}
	h.free = h.free[:n]
	return k
}

// FreeList returns a copy of the free list, bottom first (the next refill
// pops the last entry).
func (h *Heap) FreeList() []ObjectID {
	h.freeMu.Lock()
	defer h.freeMu.Unlock()
	return append([]ObjectID(nil), h.free...)
}

// carve fills run with a block of fresh IDs from the global cursor in
// ascending order: the run a LIFO pop would give had they been pushed onto
// the empty free list in descending order. It holds no free-list lock, so
// a chunk's zeroing never stalls another refill or a Freer.
func (h *Heap) carve(run *[freshBlock]ObjectID) {
	base := h.next.Add(freshBlock) - freshBlock
	if base+freshBlock > uint64(maxChunks)<<chunkShift {
		panic("heap: object table exhausted")
	}
	h.ensureChunks(ObjectID(base + freshBlock - 1))
	for k := range run {
		run[k] = ObjectID(base) + ObjectID(k)
	}
}

// ensureChunks materializes every chunk up to hi's (a racing carve may
// need a later chunk first). Chunk creation is rare (once per 4096
// objects), so a plain mutex guards it; readers go through the atomic
// table header and never take it.
func (h *Heap) ensureChunks(hi ObjectID) {
	ci := int(hi >> chunkShift)
	if h.chunkAt(ci) != nil {
		return
	}
	h.chunkMu.Lock()
	t := *h.chunks.Load()
	for len(t) <= ci {
		t = append(t, new(chunk))
	}
	h.chunks.Store(&t)
	h.chunkMu.Unlock()
}
