package heap

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Allocator sharding and per-context slot runs.
//
// The object table's free lists are split across numShards independently
// locked shards. Everything else is heap-wide atomics: the used-byte
// counter (charged against the limit), the fresh-ID cursor and the
// allocation account (bytes and objects allocated and freed).
//
// Who owns a slot when. A dead slot sits on exactly one shard's free list
// (owned by that shard's mutex) or in exactly one AllocContext's run (owned
// by the context's goroutine, no lock). refillRun moves up to freshBlock
// slots from one shard to a context inside one critical section: it scans
// the shards from the context's preferred one, pops LIFO from the first
// shard that has anything, and carves fresh IDs into the preferred shard
// when none has. Allocating from the run then takes no mutex: the context
// initialises the object with plain stores and counts the allocation in a
// plain word of its own. A live object belongs to the shard it was popped from
// (the home byte of Object.shape); a Freer pushes the slot back onto that
// shard's list.
//
// What settle restores. Refill, ReleaseContext and the VM's flushes settle
// the context: its pending word is folded into the heap's account, and the
// run's unused slots are pushed back onto the home shard in reverse pop
// order. A single context that allocates, settles and refills therefore
// sees exactly the IDs a slot-at-a-time LIFO allocator would hand out — the
// free list between runs is what it would have been — which is what
// record/replay and the per-cycle live-set hashes rely on. Several
// contexts are settled newest run first (SettleContexts), so a fixed
// interleaving of threads gives fixed free lists whatever order the caller
// lists them in.
//
// What Stats means between settles. The used-byte counter is always
// current (it includes unspent TLAB quota). BytesAlloc, ObjectsAlloc and
// ObjectsUsed lag by whatever live contexts have not folded yet. A context
// counts its births in a plain word and publishes them (Publish) into its
// atomic pending word; AllocContext.AddPending supplies what is published,
// so a Stats plus every context's AddPending is exact once each owner has
// published, and after every context has been settled Stats alone is.
const (
	numShards = 16
	shardMask = numShards - 1

	// freshBlock is how many never-used object IDs a shard carves from the
	// global cursor at a time when no free list has a slot to recycle, and
	// the length of a context's slot run.
	freshBlock = 64

	// maxTLABBytes caps an AllocContext's reserved byte quota.
	maxTLABBytes = 8 << 10

	// pendingCountBits is the width of the object count in
	// AllocContext.pending; it must hold freshBlock (checked below).
	pendingCountBits = 8
)

const _ = uint(1<<pendingCountBits - 1 - freshBlock) // does not compile if a run's count could overflow its field

type shard struct {
	mu sync.Mutex
	// free holds recyclable slot IDs, popped LIFO.
	free []ObjectID
	// n is len(free) as of the last critical section that changed it,
	// stored under mu (unlock), so refillRun can pass an empty shard
	// without locking it.
	n atomic.Uint32

	_ [64]byte // keep neighboring shards off each other's cache line
}

// AllocContext is a per-thread allocation context: a byte quota already
// reserved against the heap limit (TLAB-style, so the shared used-byte
// counter is touched roughly once per maxTLABBytes) and a private run of
// free slot IDs (so a shard mutex is taken once per freshBlock objects).
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

	shard    uint32 // preferred shard: refills scan from it and carve into it
	reserved uint64

	// run[next:n] are the unused slots of the current run, in the order the
	// home shard's free list popped them; seq is the run's heap-wide stamp.
	home    uint32
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

// NewAllocContext returns an allocation context bound to the next shard in
// round-robin order.
func (h *Heap) NewAllocContext() AllocContext {
	return AllocContext{shard: h.rotor.Add(1) & shardMask}
}

// unlock publishes the free list's length for refillRun's unlocked look and
// releases the shard. Every critical section that changes free ends here.
func (s *shard) unlock() {
	s.n.Store(uint32(len(s.free)))
	s.mu.Unlock()
}

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

// SettleContexts settles several contexts in the one order that leaves
// every shard's free list independent of the order the caller found them
// in: newest run first, so runs popped from the same shard go back in
// reverse. Byte quotas stay reserved.
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

// reserveOne is the context-less allocation's reservation: reserveExact,
// after which the throwaway context takes the rotor's next shard. It stays
// out of line, as refill does, so a birth from a context's run executes no
// locked instruction (make bench-smoke checks allocate).
//
//go:noinline
func (h *Heap) reserveOne(c *AllocContext, size uint64) bool {
	if !h.reserveExact(size) {
		return false
	}
	c.shard = h.rotor.Add(1) & shardMask
	return true
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

// refillRun gives the context a fresh run of up to want slots, all from one
// shard: the first in scan order from the preferred shard whose free list
// has a valid entry, else the preferred shard after carving fresh IDs into
// it (re-checked first: a racing Freer may have refilled it). A shard whose
// published length is 0 is passed without taking its lock; the carve pass
// always locks. The context must have no unused slots; its pending counts
// are folded first.
func (h *Heap) refillRun(c *AllocContext, want int) {
	h.fold(c)
	var locks uint64
	for i := uint32(0); c.next == c.n; i++ {
		si := (c.shard + i) & shardMask
		s := &h.shards[si]
		if i < numShards && s.n.Load() == 0 {
			continue
		}
		s.mu.Lock()
		locks++
		n := h.popRunLocked(s, c.run[:want])
		for n == 0 && i == numShards { // a full scan found nothing to recycle
			h.carveLocked(s)
			n = h.popRunLocked(s, c.run[:want])
		}
		s.unlock()
		if n > 0 {
			c.home, c.next, c.n = si, 0, uint32(n)
			c.seq = h.runSeq.Add(1)
		}
	}
	h.allocShardLocks.Add(locks)
}

// settle folds the context's pending counts and, when the run has unused
// slots, pushes them back onto the home shard in reverse pop order, so the
// shard's free list is what a slot-at-a-time allocator would have left.
// Entries that went live since they were popped (duplicates) are dropped
// and counted.
func (h *Heap) settle(c *AllocContext) {
	h.fold(c)
	if c.next == c.n {
		return
	}
	s := &h.shards[c.home]
	s.mu.Lock()
	for i := c.n; i > c.next; i-- {
		if id := c.run[i-1]; h.slot(id).Size() == 0 {
			s.free = append(s.free, id)
		} else {
			h.freeListRepairs.Add(1)
		}
	}
	s.unlock()
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

// popRunLocked pops up to len(run) recyclable slots off s's free list into
// run, in LIFO order, discarding (and counting) corrupt entries that name a
// live or unmaterialized slot. A duplicate of a still-dead slot passes here
// and is caught when the run reaches it (allocate). Caller holds s.mu.
func (h *Heap) popRunLocked(s *shard, run []ObjectID) int {
	k := 0
	n := len(s.free)
	for n > 0 && k < len(run) {
		n--
		id := s.free[n]
		if obj := h.slot(id); obj == nil || obj.Size() != 0 {
			h.freeListRepairs.Add(1)
			continue
		}
		run[k] = id
		k++
	}
	s.free = s.free[:n]
	return k
}

// FreeLists returns a copy of every shard's free list, bottom first (the
// next allocation from a shard pops the last entry).
func (h *Heap) FreeLists() [][]ObjectID {
	out := make([][]ObjectID, len(h.shards))
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		out[i] = append([]ObjectID(nil), s.free...)
		s.mu.Unlock()
	}
	return out
}

// carveLocked claims a block of fresh IDs from the global cursor and pushes
// them onto s's free list in descending order, so LIFO pops hand them out
// ascending. Caller holds s.mu.
func (h *Heap) carveLocked(s *shard) {
	base := h.next.Add(freshBlock) - freshBlock
	if base+freshBlock > uint64(maxChunks)<<chunkShift {
		panic("heap: object table exhausted")
	}
	h.ensureChunks(ObjectID(base + freshBlock - 1))
	for id := base + freshBlock - 1; ; id-- {
		s.free = append(s.free, ObjectID(id))
		if id == base {
			break
		}
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
