package heap

import "sync/atomic"

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

// Object is one heap object. Mutators and the collector share Objects:
// reference slots, and the stale word once the object is born, are accessed
// atomically; the mark
// word is claimed by CAS while several tracer workers run, by a plain store
// while one does. Everything else is immutable after allocation.
type Object struct {
	// class is accessed atomically: a slot being recycled by a background
	// free (FreeBatch) is still reachable through warm chunk caches, and a
	// cached probe that won the liveness check may read the class word
	// while the sweeper clears it.
	class ClassID
	// stale is the stale clock's position at the object's birth or last
	// use (see Clock): only birth and the read barrier's cold path (and
	// SetStale, for tests and tools) write it; no collection does.
	stale uint32
	// mark holds the epoch of the last collection that reached this object.
	mark uint32
	// flags holds miscellaneous state bits (offload residency).
	flags uint32
	// home is the allocator shard that owns this object's slot: FreeBatch
	// returns the slot to this shard's free list and charges this shard's
	// accounting, so an object is allocated and freed under the same shard
	// lock.
	home uint8
	// size is the total simulated byte size (header + ref slots + scalar).
	// Accessed atomically: it doubles as the slot's liveness word (0 = free),
	// and with concurrent sweep the background sweeper's liveness probes race
	// allocation. allocate publishes it last, so a nonzero size load acquires
	// the rest of the object's initialization.
	size uint64
	// refs are the object's tagged reference words: a prefix of inline when
	// the shape has at most inlineRefs slots (so a slot read touches the
	// header's own cache lines, not a second allocation), else a separate
	// array that later births of the slot with as many slots or more reuse.
	refs   []uint64
	inline [inlineRefs]uint64
}

// Class returns the object's class ID.
func (o *Object) Class() ClassID { return ClassID(atomic.LoadUint32((*uint32)(&o.class))) }

// Size returns the object's total simulated size in bytes.
func (o *Object) Size() uint64 { return atomic.LoadUint64(&o.size) }

// setSize atomically stores the size/liveness word.
func (o *Object) setSize(n uint64) { atomic.StoreUint64(&o.size, n) }

// NumRefs returns the number of reference slots.
func (o *Object) NumRefs() int { return len(o.refs) }

// StalePos returns the stale-clock position stored at the object's birth or
// last use; Clock.Stale turns it into the stale counter.
func (o *Object) StalePos() uint32 { return atomic.LoadUint32(&o.stale) }

// Ref atomically loads the tagged reference word in the given slot.
func (o *Object) Ref(slot int) Ref { return Ref(atomic.LoadUint64(&o.refs[slot])) }

// SetRef atomically stores a reference word into the given slot.
func (o *Object) SetRef(slot int, r Ref) { atomic.StoreUint64(&o.refs[slot], uint64(r)) }

// CompareAndSwapRef atomically replaces the slot's value iff it still holds
// old. The read barrier uses this so it never overwrites a concurrent
// mutator store (§4.1: "[iff a.f == t]").
func (o *Object) CompareAndSwapRef(slot int, old, new Ref) bool {
	return atomic.CompareAndSwapUint64(&o.refs[slot], uint64(old), uint64(new))
}

// SwapRef atomically stores r into the slot and returns the previous value.
// The SATB deletion barrier uses this so the overwritten reference it must
// log is exactly the one evicted — a separate load-then-store pair could
// lose a value stored by a racing mutator without ever logging it.
func (o *Object) SwapRef(slot int, r Ref) Ref {
	return Ref(atomic.SwapUint64(&o.refs[slot], uint64(r)))
}

// Marked reports whether the object has been reached in the collection with
// the given epoch.
func (o *Object) Marked(epoch uint32) bool { return atomic.LoadUint32(&o.mark) == epoch }

// TryMarkOwned is TryMark for a caller that is the only one marking: a
// load and a plain store instead of the CAS. The caller's exclusivity has to
// be ordered before any other marker starts (the tracer launches its first
// helper with a go statement after it stops using this).
func (o *Object) TryMarkOwned(epoch uint32) bool {
	if o.mark == epoch {
		return false
	}
	o.mark = epoch
	return true
}

// TryMark attempts to claim the object for the collection with the given
// epoch. It returns true iff this caller performed the transition, which is
// how parallel tracer workers avoid processing an object twice (§4.5).
func (o *Object) TryMark(epoch uint32) bool {
	for {
		cur := atomic.LoadUint32(&o.mark)
		if cur == epoch {
			return false
		}
		if atomic.CompareAndSwapUint32(&o.mark, cur, epoch) {
			return true
		}
	}
}
