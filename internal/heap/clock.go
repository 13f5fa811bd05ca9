package heap

import "sync/atomic"

// The stale clock. §4.1 keeps a logarithmic counter in every object header:
// the read barrier's cold path resets it to 0 on use, and full-heap
// collection number g increments it from k to k+1 iff 2^k divides g,
// saturating at MaxStale. Applied eagerly that rule writes every live object
// on every aging collection. The clock computes the same counter from one
// word per object that only birth and use write.
//
// The clock's position P counts the aging collections so far, and an
// object's stale word holds P as of its birth or last use. The counter is
// monotone in that position: two counters aged by the same collections keep
// their order (equal counters step together, and a step moves a lower one
// up by at most one, so never past a higher one). So for each
// value j there is a threshold Tj with counter >= j iff pos < Tj, and
// T1 >= T2 >= ... >= T7. Aging collection g moves every object at j-1 to j
// iff 2^(j-1) divides g, so it sets Tj = T(j-1) for each such j >= 2,
// highest first, and every object at 0 to 1: P++, T1 = P. A stale read is
// #{j : pos < Tj}, at most MaxStale compares.
//
// The first clock starts with a history: P = MaxStale and Tj = MaxStale+1-j,
// so position MaxStale-v reads v. Each aging step maps every counter value's
// nonempty set of positions onto a nonempty set, so every value keeps at
// least one position for SetStale to store.

// Clock is one published state of the stale clock. Heap.AgeStale publishes
// a new one; a published Clock never changes, so a holder reads the
// position and the thresholds it was published with.
type Clock struct {
	t [MaxStale]uint32 // t[j-1] is Tj; t[0] is also P, which every step sets T1 to
}

// firstClock is a new heap's clock (see above).
func firstClock() *Clock {
	c := &Clock{}
	for j := range c.t {
		c.t[j] = MaxStale - uint32(j)
	}
	return c
}

// Now returns the position birth and use store in an object's stale word.
func (c *Clock) Now() uint32 { return c.t[0] }

// Stale returns the stale counter of an object whose stale word holds pos.
// The thresholds descend, so the count stops at the first one pos reaches;
// it inlines (make bench-smoke checks).
func (c *Clock) Stale(pos uint32) uint8 {
	n := uint8(0)
	for n < MaxStale && pos < c.t[n] {
		n++
	}
	return n
}

// Clock returns the current stale clock.
func (h *Heap) Clock() *Clock { return h.clock.Load() }

// Stale returns obj's stale counter on the current clock.
func (h *Heap) Stale(obj *Object) uint8 { return h.clock.Load().Stale(obj.StalePos()) }

// ClearStale resets obj's stale counter to 0: one store of the clock's
// position, never a read-modify-write, so no collection can lose it.
func (h *Heap) ClearStale(obj *Object) { atomic.StoreUint32(&obj.stale, h.clock.Load().Now()) }

// SetStale gives obj the stale counter v (saturating at MaxStale) on the
// current clock, as if it was last used that many aging collections ago;
// it then ages exactly like any object at v. For tests and tools.
func (h *Heap) SetStale(obj *Object, v uint8) {
	pos := uint32(0) // below T7, which never drops under 1
	if v < MaxStale {
		pos = h.clock.Load().t[v] // T(v+1), the lowest position that reads v
	}
	atomic.StoreUint32(&obj.stale, pos)
}

// AgeStale advances the clock by aging collection gcIndex. The collector
// calls it once per aging collection, after the sweep has read the
// counters of the objects it frees and with no mutator running.
func (h *Heap) AgeStale(gcIndex uint64) {
	c := *h.clock.Load()
	for j := MaxStale; j >= 2; j-- {
		if gcIndex&(uint64(1)<<(j-1)-1) == 0 {
			c.t[j-1] = c.t[j-2]
		}
	}
	c.t[0]++
	h.clock.Store(&c)
}
