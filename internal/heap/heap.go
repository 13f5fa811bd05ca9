package heap

import (
	"errors"
	"fmt"
	"math/bits"
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
	ObjectsUsed  uint64 // number of allocated, unswept objects (ObjectsAlloc - ObjectsFreed)
	BytesAlloc   uint64 // cumulative bytes ever allocated
	ObjectsAlloc uint64 // cumulative objects ever allocated
	BytesFreed   uint64 // cumulative bytes freed by the sweeper
	ObjectsFreed uint64 // cumulative objects freed by the sweeper
	// FreeListRepairs counts free-list entries the allocator discarded
	// because they named a live or duplicate slot — corruption (injected or
	// real) that was detected and repaired instead of handed out twice.
	FreeListRepairs uint64
	// AllocShardLocks counts shard-mutex acquisitions made by the allocation
	// path (run refills, and settles that return unused slots);
	// AllocShardLocks/ObjectsAlloc is the locks-per-allocation figure, about
	// 1/freshBlock for a long-lived context.
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
// Slot free lists are sharded: they live in numShards independently locked
// shards, and allocation contexts take slots from them a run at a time (see
// shard.go). The used-byte counter is a single atomic charged by CAS, the
// allocation account is four more atomics, and the chunk table is read
// through atomic pointers. Reference slots are read and written atomically
// and lock-free (see Object). Freers over disjoint objects may run
// concurrently.
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

	// The allocation account: contexts fold their pending counts into the
	// alloc side when they settle or refill, and a Freer adds each flushed
	// batch to the freed side. Between settles the freed side may run ahead
	// of the folded alloc side; the differences are exact modulo 2^64.
	bytesAlloc, objectsAlloc atomic.Uint64
	bytesFreed, objectsFreed atomic.Uint64

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

// Stats returns a snapshot of the accounting counters, taking no lock.
// Allocations a live context has not settled yet are not in it (see
// AllocContext.AddPending).
func (h *Heap) Stats() Stats {
	st := Stats{Limit: h.limit, BytesUsed: h.used.Load(),
		BytesFreed: h.bytesFreed.Load(), ObjectsFreed: h.objectsFreed.Load(),
		BytesAlloc: h.bytesAlloc.Load(), ObjectsAlloc: h.objectsAlloc.Load(),
		FreeListRepairs: h.freeListRepairs.Load(), AllocShardLocks: h.allocShardLocks.Load()}
	st.ObjectsUsed = st.ObjectsAlloc - st.ObjectsFreed
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
	var shape allocShape
	shape.refSlots, shape.scalarBytes = h.classes.Shape(class)
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
	refSlots, scalarBytes := h.classes.Shape(class)
	if len(opts) > 0 {
		// The options take the shape's address, so it escapes; keeping it
		// inside the branch keeps the plain-class allocation off the Go heap.
		refSlots, scalarBytes = h.ResolveShape(class, opts)
		if refSlots < 0 || scalarBytes < 0 {
			panic(fmt.Sprintf("heap: negative allocation shape for %s", h.classes.Name(class)))
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
		if !h.reserveOne(ctx, size) {
			return Null, ErrHeapFull
		}
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
		h.repairedEntry()
	}
	// Birth writes the header with plain stores: no other goroutine reads
	// it meanwhile (see Object.class). flags is zero on every fresh or
	// freed slot (Freer.Free's invariant), so it is loaded and stored only
	// when that is not what it holds.
	obj.class = class
	obj.stale = h.clock.Load().Now()
	if obj.flags != 0 {
		obj.flags = 0
	}
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
	obj.size = uint32(size)
	ctx.births += size<<pendingCountBits | 1
	return MakeRef(id), nil
}

// repairedEntry counts one duplicate free-list entry a run dropped; out of
// line, so allocate holds no locked instruction.
//
//go:noinline
func (h *Heap) repairedEntry() { h.freeListRepairs.Add(1) }

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

// SweepBatch is how many dead objects a Freer frees before it publishes
// them: enough to take each shard lock for a run of frees, few enough that
// the batch's table entries are still in cache and its scratch stays small.
const SweepBatch = 256

// Freer frees dead objects in place, the sweep's one free path. Free clears
// the object's header with plain stores and notes its ID under its home
// shard; every SweepBatch frees, and at Flush, each shard the batch touched
// is locked once, in shard order, to append its IDs to its free list in the
// order they were freed and run the free-list corruption probe. The batch
// is then added to the heap's freed account, and its heap-resident bytes
// are credited to the used counter, once each. A dead object is
// unreachable, so no other goroutine reads its header while Free clears
// it, and the shard lock that publishes the slot orders the clears before
// the birth that pops it. A Freer belongs to one goroutine at a time;
// Freers over disjoint objects may run side by side.
type Freer struct {
	h      *Heap
	n      int                                // IDs in the batch
	ids    [SweepBatch]ObjectID               // the batch, in free order
	homes  [numShards][SweepBatch / 64]uint64 // bit i of shard si's words: ids[i] is homed on si
	freed  uint64                             // bytes the batch freed
	credit uint64                             // heap-resident bytes the batch freed
}

// NewFreer returns a Freer for the heap's dead objects.
func (h *Heap) NewFreer() *Freer { return &Freer{h: h} }

// Free frees obj, slot id: it must be allocated and unreachable, and no
// other Freer may hold it. size, class and shape are cleared, and flags
// when it is not zero already; stale is left for birth, and refs keeps
// pointing at the slot's words, so a later birth can reuse a separate
// array. An offloaded object's bytes go back to the disk account, and the
// heap is credited nothing for them.
func (f *Freer) Free(id ObjectID, obj *Object) {
	size := uint64(obj.size)
	heapBytes, si := size, obj.home()&shardMask
	if fl := obj.flags; fl != 0 {
		if fl&flagOffloaded != 0 {
			f.h.diskMu.Lock()
			f.h.disk.BytesUsed -= size
			f.h.diskMu.Unlock()
			heapBytes = 0
		}
		obj.flags = 0
	}
	obj.size, obj.class, obj.shape = 0, 0, 0
	f.credit += heapBytes
	f.freed += size
	f.homes[si][f.n>>6] |= 1 << (f.n & 63)
	f.ids[f.n] = id
	if f.n++; f.n == SweepBatch {
		f.Flush()
	}
}

// Flush publishes the batch's frees (see Freer).
func (f *Freer) Flush() {
	if f.n == 0 {
		return
	}
	h := f.h
	for si := range f.homes {
		in := &f.homes[si]
		if *in == ([SweepBatch / 64]uint64{}) {
			continue
		}
		s := &h.shards[si]
		s.mu.Lock()
		for w, b := range in {
			for ; b != 0; b &= b - 1 {
				s.free = append(s.free, f.ids[w<<6|bits.TrailingZeros64(b)])
			}
		}
		h.maybeCorruptFreeListLocked(s)
		s.unlock()
		*in = [SweepBatch / 64]uint64{}
	}
	h.bytesFreed.Add(f.freed)
	h.objectsFreed.Add(uint64(f.n))
	h.creditBytes(f.credit)
	f.n, f.freed, f.credit = 0, 0, 0
}

// FreeBatch frees the objects as the sweep does, through a Freer, in list
// order. Freeing a slot that is not allocated, or listing an ID twice,
// panics. Calls over disjoint objects may run concurrently.
func (h *Heap) FreeBatch(ids []ObjectID) {
	f := Freer{h: h}
	for _, id := range ids {
		obj := h.slot(id)
		if obj == nil || obj.Size() == 0 {
			panic(fmt.Sprintf("heap: double free of object %d", id))
		}
		f.Free(id, obj)
	}
	f.Flush()
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
