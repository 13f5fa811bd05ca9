package heap

import (
	"sync/atomic"
	"unsafe"
)

// HeaderBytes is the simulated per-object header cost charged by the byte
// accounting, standing in for the two-word Jikes RVM object header that
// holds (among other things) the three-bit stale counter.
const HeaderBytes = 16

// RefSlotBytes is the simulated size of one reference field.
const RefSlotBytes = 8

// inlineRefs is how many reference words an Object holds in its own table
// entry. A shape with more slots keeps them in a separate array.
const inlineRefs = 4

// MaxStale is the saturation value of the three-bit logarithmic stale
// counter (§4.1): a value k means the object was last used about 2^k
// full-heap collections ago.
const MaxStale = 7

// The shape word packs an object's slot count under its home shard.
const (
	numRefsBits = 24
	numRefsMask = 1<<numRefsBits - 1
)

const _ = uint(1<<(32-numRefsBits) - numShards) // does not compile if a home shard could overflow its byte

// Allocations that would not fit the narrowed header words are refused
// (ErrHeapFull), never born with a wrapped size or slot count.
const (
	maxRefSlots   = numRefsMask
	maxObjectSize = 1<<32 - 1
)

// Object is one heap object: one 64-byte table entry, so a barrier or a
// trace step touches one cache line per object. Mutators and the collector
// share Objects: reference slots, and the stale word once the object is
// born, are accessed atomically. The other header words are written at
// birth and death with plain stores (see class). Whether a collection has
// reached the object is not kept here but in its chunk's mark bitmap
// (mark.go).
type Object struct {
	// class, like size, shape and flags, is written with plain stores at
	// birth (allocate) and death (Freer.Free), by the one goroutine that
	// owns the slot then: the allocation context that popped it, or the
	// sweep freeing it. No other goroutine reads the header meanwhile: a
	// free or dead slot is unreachable, and a concurrent sweep reads the
	// entries of clear mark bits only, which a slot free at the cycle's
	// start does not have (the start pause marked it) and a slot the sweep
	// freed lies behind its cursor. A birth is ordered before every read on
	// another goroutine by the atomic store that publishes the newborn's
	// reference, or by the safepoint handshake before a stop-the-world
	// reader; a death is ordered before the next birth in the slot by the
	// shard lock that puts it on a free list. Readers load the words
	// atomically.
	class ClassID
	// stale is the stale clock's position at the object's birth or last
	// use (see Clock): only birth and the read barrier's cold path (and
	// SetStale, for tests and tools) write it; no collection does.
	stale uint32
	_     uint32 // padding: the entry stays 64 bytes
	// flags holds miscellaneous state bits (offload residency). Offload and
	// fault-in change a live object's bits by CAS under the heap's diskMu;
	// birth and death write it as class is.
	flags uint32
	// size is the total simulated byte size (header + ref slots + scalar).
	// It doubles as the slot's liveness word (0 = free); written as class
	// is.
	size uint32
	// shape is home<<numRefsBits | the number of reference slots. home is
	// the allocator shard that owns this object's slot: a Freer returns the
	// slot to this shard's free list and charges this shard's accounting, so
	// an object's birth and death are counted under the same shard lock. A
	// freed slot's shape is 0.
	shape uint32
	// refs points at the object's first tagged reference word: inline[0]
	// when the shape has at most inlineRefs slots (so a slot read touches
	// the entry's own cache line, not a second allocation), else the first
	// word of a separate array whose capacity is the word just before it,
	// which later births of the slot with as many slots or fewer reuse. One
	// pointer instead of a slice header is what fits the entry in 64 bytes.
	refs   unsafe.Pointer
	inline [inlineRefs]uint64
}

// Class returns the object's class ID.
func (o *Object) Class() ClassID { return ClassID(atomic.LoadUint32((*uint32)(&o.class))) }

// Size returns the object's total simulated size in bytes.
func (o *Object) Size() uint64 { return uint64(atomic.LoadUint32(&o.size)) }

// NumRefs returns the number of reference slots.
func (o *Object) NumRefs() int { return int(o.shape & numRefsMask) }

// home returns the allocator shard that owns the object's slot.
func (o *Object) home() uint32 { return o.shape >> numRefsBits }

// words returns the object's reference words, NumRefs of them, so that an
// index past them fails the slice's bounds check.
func (o *Object) words() []uint64 {
	n := o.shape & numRefsMask
	return (*[1 << 32]uint64)(o.refs)[:n:n]
}

// spareCap returns the capacity of the separate reference array refs
// points at: 0 when it points at the inline words or, on a never-born
// slot, nowhere.
func (o *Object) spareCap() int {
	if o.refs == nil || o.refs == unsafe.Pointer(&o.inline) {
		return 0
	}
	return int(*(*uint64)(unsafe.Add(o.refs, -RefSlotBytes)))
}

// StalePos returns the stale-clock position stored at the object's birth or
// last use; Clock.Stale turns it into the stale counter.
func (o *Object) StalePos() uint32 { return atomic.LoadUint32(&o.stale) }

// Ref atomically loads the tagged reference word in the given slot.
func (o *Object) Ref(slot int) Ref { return Ref(atomic.LoadUint64(&o.words()[slot])) }

// SetRef atomically stores a reference word into the given slot.
func (o *Object) SetRef(slot int, r Ref) { atomic.StoreUint64(&o.words()[slot], uint64(r)) }

// CompareAndSwapRef atomically replaces the slot's value iff it still holds
// old. The read barrier uses this so it never overwrites a concurrent
// mutator store (§4.1: "[iff a.f == t]").
func (o *Object) CompareAndSwapRef(slot int, old, new Ref) bool {
	return atomic.CompareAndSwapUint64(&o.words()[slot], uint64(old), uint64(new))
}

// SwapRef atomically stores r into the slot and returns the previous value.
// The SATB deletion barrier uses this so the overwritten reference it must
// log is exactly the one evicted — a separate load-then-store pair could
// lose a value stored by a racing mutator without ever logging it.
func (o *Object) SwapRef(slot int, r Ref) Ref {
	return Ref(atomic.SwapUint64(&o.words()[slot], uint64(r)))
}
