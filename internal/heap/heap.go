package heap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/obs"
)

const (
	// A chunk is 4096 64-byte objects (256 KiB): a new heap zeroes one
	// before its first object exists, and ChunkCache lookups do not depend
	// on staying inside one chunk, so small chunks cost nothing.
	chunkShift = 12
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
	maxChunks  = 1 << 18 // up to ~1 G objects
)

// chunk is one fixed block of the object table and its mark bitmap
// (mark.go). Chunks are never moved or reclaimed, so *Object pointers stay
// valid until the object is freed.
type chunk struct {
	objs  [chunkSize]Object
	marks [markWords]uint64
}

// ErrHeapFull is returned by Allocate when the requested object does not fit
// under the heap limit. The caller (the VM's allocation slow path) reacts by
// collecting, pruning, or raising the out-of-memory error.
var ErrHeapFull = errors.New("heap: allocation would exceed heap limit")

// Stats is a snapshot of the heap's byte and object accounting.
type Stats struct {
	Limit        uint64 // maximum heap size in simulated bytes
	BytesUsed    uint64 // bytes currently held by live (unswept) objects
	ObjectsUsed  uint64 // number of allocated, unswept objects
	BytesAlloc   uint64 // cumulative bytes ever allocated
	ObjectsAlloc uint64 // cumulative objects ever allocated
	BytesFreed   uint64 // cumulative bytes freed by the sweeper
	ObjectsFreed uint64 // cumulative objects freed by the sweeper
	// FreeListRepairs counts free-list entries the allocator discarded
	// because they named a live or duplicate slot — corruption (injected or
	// real) that was detected and repaired instead of handed out twice.
	FreeListRepairs uint64
	// AllocShardLocks counts shard-mutex acquisitions made by the allocation
	// path (run refills and settles); AllocShardLocks/ObjectsAlloc is the
	// locks-per-allocation figure, about 1/freshBlock for a long-lived
	// context.
	AllocShardLocks uint64
}

// Fullness returns BytesUsed/Limit, the quantity that drives the leak
// pruning state machine (§3.1).
func (s Stats) Fullness() float64 {
	if s.Limit == 0 {
		return 0
	}
	return float64(s.BytesUsed) / float64(s.Limit)
}

// Heap is the simulated managed heap: a chunked object table plus byte
// accounting against a fixed limit. Object pointers returned by Get remain
// valid until the object is freed, because chunks are never moved.
//
// Allocation and freeing are sharded: slot free lists and accounting live
// in numShards independently locked shards, allocation contexts take slots
// from them a run at a time (see shard.go), the used-byte counter is a
// single atomic charged by CAS, and the chunk table is read through atomic
// pointers. Slot reads and writes on individual objects are
// atomic and lock-free (see Object). FreeBatch may be called
// concurrently for disjoint objects.
type Heap struct {
	classes *Registry
	limit   uint64

	// used is the authoritative used-byte count, charged against limit by
	// CAS. It includes bytes reserved by live AllocContexts (TLAB quotas)
	// that have not yet become objects; the VM returns those at every
	// stop-the-world collection, so post-GC readings are exact.
	used atomic.Uint64

	// next is the lowest never-carved ObjectID. Shards carve blocks of
	// fresh IDs from it; freed IDs recycle through per-shard free lists.
	next atomic.Uint64

	// runSeq stamps every run handed to a context (SettleContexts orders by
	// it); allocShardLocks is Stats.AllocShardLocks.
	runSeq          atomic.Uint64
	allocShardLocks atomic.Uint64

	// chunks indexes the table: entry ci is chunk ci, and a heap pays for
	// the chunks it uses. Lookups load the slice header and index it with no
	// lock; chunkMu serializes growth, which appends in place (no reader
	// indexes past the length it loaded) and publishes a new header.
	chunkMu sync.Mutex
	chunks  atomic.Pointer[[]*chunk]

	shards [numShards]shard
	// rotor spreads context-less allocations and new AllocContexts across
	// shards.
	rotor atomic.Uint32

	// clock is the stale clock (clock.go); AgeStale publishes each step.
	clock atomic.Pointer[Clock]

	// freeMu guards FreeBatch's buffers: the resolved objects of a batch
	// and, per entry, the next entry of the same home shard. Lock order:
	// freeMu before shard.mu.
	freeMu   sync.Mutex
	freeObjs []*Object
	freeNext []int32

	// diskMu guards the offload accounting and offload-state transitions.
	// Lock order: shard.mu before diskMu.
	diskMu sync.Mutex
	disk   DiskStats

	// inj is the optional fault injector consulted at the allocator's
	// failure points (nil injects nothing).
	inj *faultinject.Injector
	// Prune-time observability histograms (nil when disabled; see obs.go).
	pruneFreedBytes *obs.Histogram
	pruneStaleAge   *obs.Histogram
	// freeListRepairs counts corrupt free-list entries detected and
	// discarded (see Stats.FreeListRepairs).
	freeListRepairs atomic.Uint64
}

// New creates a heap with the given byte limit and class registry.
func New(classes *Registry, limit uint64) *Heap {
	if classes == nil {
		panic("heap: nil class registry")
	}
	if limit == 0 {
		panic("heap: zero heap limit")
	}
	h := &Heap{classes: classes, limit: limit}
	h.next.Store(1)
	h.chunks.Store(new([]*chunk))
	h.clock.Store(firstClock())
	return h
}

// Classes returns the heap's class registry.
func (h *Heap) Classes() *Registry { return h.classes }

// SetFaultInjector wires a fault injector into the allocator's injection
// points (allocation limit races, free-list corruption). Call before any
// allocation; nil disables injection.
func (h *Heap) SetFaultInjector(inj *faultinject.Injector) { h.inj = inj }

// FreeListRepairs returns how many corrupt free-list entries have been
// detected and repaired.
func (h *Heap) FreeListRepairs() uint64 { return h.freeListRepairs.Load() }

// Limit returns the heap's maximum size in simulated bytes.
func (h *Heap) Limit() uint64 { return h.limit }

// BytesUsed returns the current used-byte count without locking (it may
// include outstanding TLAB reservations between collections).
func (h *Heap) BytesUsed() uint64 { return h.used.Load() }

// Stats returns a snapshot of the accounting counters, summed across
// shards. Allocations a live context has not settled yet are not in it
// (see AllocContext.AddPending).
func (h *Heap) Stats() Stats {
	st := Stats{Limit: h.limit, BytesUsed: h.used.Load(),
		FreeListRepairs: h.freeListRepairs.Load(), AllocShardLocks: h.allocShardLocks.Load()}
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		st.BytesAlloc += s.bytesAlloc
		st.ObjectsAlloc += s.objectsAlloc
		st.BytesFreed += s.bytesFreed
		st.ObjectsFreed += s.objectsFreed
		st.ObjectsUsed += s.objectsUsed
		s.mu.Unlock()
	}
	return st
}

// ObjectSize returns the simulated size of an object with the given shape.
func ObjectSize(refSlots, scalarBytes int) uint64 {
	return HeaderBytes + uint64(refSlots)*RefSlotBytes + uint64(scalarBytes)
}

// AllocOption tweaks a single allocation's shape relative to its class
// defaults (used for arrays and variable-size payloads).
type AllocOption func(*allocShape)

type allocShape struct {
	refSlots    int
	scalarBytes int
}

// WithRefSlots overrides the number of reference slots for one allocation.
func WithRefSlots(n int) AllocOption {
	return func(s *allocShape) { s.refSlots = n }
}

// WithScalarBytes overrides the scalar payload size for one allocation.
func WithScalarBytes(n int) AllocOption {
	return func(s *allocShape) { s.scalarBytes = n }
}

// ResolveShape applies opts to the class's default shape and returns the
// effective (refSlots, scalarBytes) an allocation would use — what the
// trace recorder needs to stamp shaped allocations without re-deriving the
// shape from the allocated object.
func (h *Heap) ResolveShape(class ClassID, opts []AllocOption) (refSlots, scalarBytes int) {
	c := h.classes.Get(class)
	shape := allocShape{refSlots: c.RefSlots, scalarBytes: c.ScalarBytes}
	for _, o := range opts {
		o(&shape)
	}
	return shape.refSlots, shape.scalarBytes
}

// Allocate creates a new object of the given class, charging exactly its
// size against the heap limit. All reference slots start null. It returns
// ErrHeapFull (without allocating) when the object does not fit, or when
// its shape has more than 2^24-1 slots or a size of 4 GiB or more, which
// the object's header words cannot hold; triggering collection is the
// caller's job, keeping the heap policy-free.
//
// It is AllocateCtx through a throwaway context whose run is one slot and
// whose reservation is exact, settled before returning.
func (h *Heap) Allocate(class ClassID, opts ...AllocOption) (Ref, error) {
	var c AllocContext
	r, err := h.allocate(&c, 1, class, opts)
	h.settle(&c)
	return r, err
}

// AllocateCtx is Allocate through a context: the size is taken from the
// context's reserved quota and the slot from its run, so the shared byte
// counter and a shard mutex are touched only on refill.
func (h *Heap) AllocateCtx(ctx *AllocContext, class ClassID, opts ...AllocOption) (Ref, error) {
	return h.allocate(ctx, freshBlock, class, opts)
}

// allocate takes runLen slots per refill; runLen 1 marks the context-less
// path, which also reserves bytes exactly instead of by quota and picks its
// shard from the rotor once the bytes are granted.
func (h *Heap) allocate(ctx *AllocContext, runLen int, class ClassID, opts []AllocOption) (Ref, error) {
	c := h.classes.Get(class)
	refSlots, scalarBytes := c.RefSlots, c.ScalarBytes
	if len(opts) > 0 {
		// The options take the shape's address, so it escapes; keeping it
		// inside the branch keeps the plain-class allocation off the Go heap.
		refSlots, scalarBytes = h.ResolveShape(class, opts)
		if refSlots < 0 || scalarBytes < 0 {
			panic(fmt.Sprintf("heap: negative allocation shape for %s", c.Name))
		}
	}
	// A shape the narrowed header words cannot hold fails like one that
	// does not fit under the limit.
	if refSlots > maxRefSlots {
		return Null, ErrHeapFull
	}
	size := ObjectSize(refSlots, scalarBytes)
	if size > maxObjectSize {
		return Null, ErrHeapFull
	}

	// Injected allocation-time limit race: behave as if a racing thread
	// consumed the remaining headroom between the caller's check and our
	// reservation. The VM's slow path reacts exactly as it would to the
	// real race — collect and retry.
	if h.inj.Should(faultinject.AllocLimitRace) {
		return Null, ErrHeapFull
	}

	if runLen == 1 {
		if !h.reserveExact(size) {
			return Null, ErrHeapFull
		}
		ctx.shard = h.rotor.Add(1) & shardMask
	} else {
		if ctx.reserved < size && !h.refill(ctx, size) {
			return Null, ErrHeapFull
		}
		ctx.reserved -= size
	}

	// Take the run's next slot. The slot is this context's alone, so the
	// object is initialised with no lock held. A slot that is already live
	// is a duplicate free-list entry that landed in the run twice: drop it
	// and count the repair rather than hand the slot out again.
	var id ObjectID
	var obj *Object
	for {
		if ctx.next == ctx.n {
			h.refillRun(ctx, runLen)
		}
		id = ctx.run[ctx.next]
		ctx.next++
		if obj = h.slot(id); obj.Size() == 0 {
			break
		}
		h.freeListRepairs.Add(1)
	}
	// class and size are the two header words birth always has to write.
	// flags is already zero on every fresh or freed slot (freeLocked's
	// invariant), so it is loaded first and stored — a locked instruction —
	// only when that is not what it holds. stale gets the clock's position
	// in a plain store: every reader of it reaches the object through its
	// size word, which publishes the slot below, so none can see the slot
	// before the store (the sweep reads a dead object's stale word before
	// FreeBatch hands the slot on, under the shard lock).
	atomic.StoreUint32((*uint32)(&obj.class), uint32(class))
	obj.stale = h.clock.Load().Now()
	setHeaderWord(&obj.flags, 0)
	obj.shape = ctx.home<<numRefsBits | uint32(refSlots)
	// A separate array large enough is this slot's own from an earlier
	// birth; a new one carries its capacity in the word before refs.
	switch {
	case refSlots <= inlineRefs:
		obj.refs = unsafe.Pointer(&obj.inline)
		clear(obj.words())
	case obj.spareCap() >= refSlots:
		clear(obj.words())
	default:
		a := make([]uint64, 1+refSlots)
		a[0] = uint64(refSlots)
		obj.refs = unsafe.Pointer(&a[1])
	}
	// Publish size LAST: it is the slot's liveness word, and the background
	// sweeper's index-order probes gate on it. The atomic store orders the
	// header/refs initialization above before the slot becomes visible.
	obj.setSize(size)
	ctx.pending.Add(size<<pendingCountBits | 1)
	return MakeRef(id), nil
}

// chunkAt returns chunk ci of the table, nil if it was never materialized.
func (h *Heap) chunkAt(ci int) *chunk {
	if t := *h.chunks.Load(); ci < len(t) {
		return t[ci]
	}
	return nil
}

func (h *Heap) slot(id ObjectID) *Object {
	if c := h.chunkAt(int(id >> chunkShift)); c != nil {
		return &c.objs[id&chunkMask]
	}
	return nil
}

// Get resolves a reference to its object. Tag bits are ignored. It panics
// on null or on an ID that was never allocated: by construction the
// collector only frees unreachable objects, so a dangling dereference is a
// bug in the runtime, not a program condition.
func (h *Heap) Get(r Ref) *Object {
	if r.IsNull() {
		panic("heap: dereference of null reference")
	}
	id := r.ID()
	obj := h.slot(id)
	if obj == nil || obj.Size() == 0 {
		panic(fmt.Sprintf("heap: dereference of dead or unallocated %v", r.Untagged()))
	}
	return obj
}

// ChunkCache is one goroutine's view of the chunk table: the slice header
// it last loaded. Entries below its length never change (the table only
// grows, and chunks are never moved or reclaimed), so a lookup indexes the
// view with no atomic load and reloads the header only for an ID past it.
// A cache belongs to one goroutine and must not be shared.
type ChunkCache struct {
	t []*chunk
}

// GetCached resolves a reference through cc. Unlike Get it does not panic:
// it returns nil for null references and for dead or unallocated IDs, so a
// caller holding a lock-free critical region can leave it cleanly before
// reporting the bad reference. Null needs no test of its own: ID 0's entry
// is never allocated. GetCached inlines (make bench-smoke checks it), so a
// lookup costs no call.
func (h *Heap) GetCached(r Ref, cc *ChunkCache) *Object {
	ci := r >> (refShift + chunkShift)
	if ci >= Ref(len(cc.t)) {
		if cc.t = *h.chunks.Load(); ci >= Ref(len(cc.t)) {
			return nil
		}
	}
	if obj := &cc.t[ci].objs[r>>refShift&chunkMask]; obj.Size() != 0 {
		return obj
	}
	return nil
}

// FreeBatch releases objects and credits their bytes back through their
// home shards. Each is resolved once and chained to the others of its home
// shard in list order, then each shard lock is taken once and its chain
// freed, so a shard's free list receives its IDs in list order. Freeing an
// already-free slot panics. Safe to call concurrently (calls
// take turns on the heap's batch buffers); the collector's sweep calls it
// once per 256 dead IDs, the batches ascending and the IDs ascending in
// each, so free-list order is deterministic and the buffers stay a batch
// long. A steady-state call allocates nothing.
func (h *Heap) FreeBatch(ids []ObjectID) {
	if len(ids) == 0 {
		return
	}
	h.freeMu.Lock()
	defer h.freeMu.Unlock()
	if cap(h.freeObjs) < len(ids) {
		h.freeObjs, h.freeNext = make([]*Object, len(ids)), make([]int32, len(ids))
	}
	objs, next := h.freeObjs[:len(ids)], h.freeNext[:len(ids)]
	var head [numShards]int32
	for si := range head {
		head[si] = -1
	}
	for i := len(ids) - 1; i >= 0; i-- { // backwards, so each chain is in list order
		obj := h.slot(ids[i])
		if obj == nil || obj.Size() == 0 {
			panic(fmt.Sprintf("heap: double free of object %d", ids[i]))
		}
		si := obj.home() & shardMask
		objs[i], next[i], head[si] = obj, head[si], int32(i)
	}
	var credit uint64
	for si := range h.shards {
		if head[si] < 0 {
			continue
		}
		s := &h.shards[si]
		s.mu.Lock()
		for i := head[si]; i >= 0; i = next[i] {
			if objs[i].Size() == 0 { // an ID listed twice
				s.mu.Unlock()
				panic(fmt.Sprintf("heap: double free of object %d", ids[i]))
			}
			credit += h.freeLocked(s, ids[i], objs[i])
		}
		h.maybeCorruptFreeListLocked(s)
		s.mu.Unlock()
	}
	h.creditBytes(credit)
}

// maybeCorruptFreeListLocked is the shard free-list corruption probe: when
// the injector fires, it plants a duplicate entry in s's free list and then
// runs the integrity scan, which must detect and repair the corruption under
// the same lock hold (so the damage is never observable outside it). The
// scan is real detection code — if it ever finds corruption that was NOT
// injected, that too is repaired and counted. Caller holds s.mu.
func (h *Heap) maybeCorruptFreeListLocked(s *shard) {
	if !h.inj.Enabled(faultinject.ShardFreeListCorruption) {
		return
	}
	if len(s.free) == 0 || !h.inj.Should(faultinject.ShardFreeListCorruption) {
		return
	}
	s.free = append(s.free, s.free[len(s.free)-1])
	if h.probeFreeListLocked(s) == 0 {
		panic("heap: free-list probe missed an injected duplicate entry")
	}
}

// probeFreeListLocked verifies s's free list: every entry must name a dead,
// materialized slot, each at most once. Violating entries are discarded
// (repair) and counted in FreeListRepairs. It returns how many entries were
// repaired. Caller holds s.mu.
func (h *Heap) probeFreeListLocked(s *shard) int {
	seen := make(map[ObjectID]struct{}, len(s.free))
	repaired := 0
	out := s.free[:0]
	for _, id := range s.free {
		obj := h.slot(id)
		if obj == nil || obj.Size() != 0 {
			repaired++
			continue
		}
		if _, dup := seen[id]; dup {
			repaired++
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	s.free = out
	if repaired > 0 {
		h.freeListRepairs.Add(uint64(repaired))
	}
	return repaired
}

// freeLocked releases obj (slot id) into shard s, clearing its header so a
// recycled slot starts clean: flags, class, size, and shape are all reset
// (the stale word is kept, which birth always sets; refs keeps pointing at
// the slot's words, so a later birth can reuse a separate array). Size and
// class always change; flags is stored only when it is not zero already,
// which is most deaths, so a free costs two locked instructions. It
// returns the heap-resident bytes to credit back to the used counter (zero
// for offloaded objects, whose bytes live on disk). Caller holds s.mu.
func (h *Heap) freeLocked(s *shard, id ObjectID, obj *Object) uint64 {
	size := obj.Size()
	heapBytes := size
	if obj.IsOffloaded() {
		h.diskMu.Lock()
		h.disk.BytesUsed -= size
		h.diskMu.Unlock()
		heapBytes = 0
	}
	s.bytesFreed += size
	s.objectsFreed++
	s.objectsUsed--
	obj.setSize(0)
	atomic.StoreUint32((*uint32)(&obj.class), 0)
	obj.shape = 0
	setHeaderWord(&obj.flags, 0)
	s.free = append(s.free, id)
	return heapBytes
}

// setHeaderWord leaves *w holding v, storing only if it does not already: an
// atomic load is a plain MOV, an atomic store is a locked XCHG. For the
// allocator's own use on a slot no one else is writing (a slot in a
// context's run, or an unreachable object being freed under its shard lock).
func setHeaderWord(w *uint32, v uint32) {
	if atomic.LoadUint32(w) != v {
		atomic.StoreUint32(w, v)
	}
}

// ForEach calls fn for every allocated object, passing its ID. The heap
// must be quiescent (stop-the-world). fn must not allocate or free.
func (h *Heap) ForEach(fn func(ObjectID, *Object)) {
	next := ObjectID(h.next.Load())
	for id := ObjectID(1); id < next; id++ {
		obj := h.slot(id)
		if obj != nil && obj.Size() != 0 {
			fn(id, obj)
		}
	}
}

// MaxID returns the exclusive upper bound of object IDs ever carved: how
// far the sweep walks the table.
func (h *Heap) MaxID() ObjectID { return ObjectID(h.next.Load()) }

// Entries returns the table entries of IDs lo, lo+1, … up to hi or the
// end of lo's chunk, whichever comes first, the mark-bitmap words from
// lo's on, and the ID after the last entry; both slices are nil when that
// chunk was never materialized. For a lo that is a multiple of 64, entry
// i's bit is bit i%64 of word i/64; the words are read atomically. A scan
// over [lo, hi) through it resolves one chunk pointer per chunk, not one
// per ID.
func (h *Heap) Entries(lo, hi ObjectID) ([]Object, []uint64, ObjectID) {
	end := min(hi, lo|chunkMask+1)
	c := h.chunkAt(int(lo >> chunkShift))
	if c == nil {
		return nil, nil, end
	}
	return c.objs[lo&chunkMask : lo&chunkMask+(end-lo)], c.marks[lo&chunkMask>>6:], end
}

// Lookup returns the object for an ID if it is currently allocated,
// without holding any heap lock.
func (h *Heap) Lookup(id ObjectID) (*Object, bool) {
	obj := h.slot(id)
	if obj == nil || obj.Size() == 0 {
		return nil, false
	}
	return obj, true
}
