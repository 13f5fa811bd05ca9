package heap

import "leakpruning/internal/obs"

// SetObs registers the heap's prune-time histograms: the size distribution
// of objects reclaimed by prune cycles and the staleness-age distribution
// they died at. A nil o leaves the histograms nil, which makes
// RecordPrunedFree a single branch.
func (h *Heap) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	reg := o.Registry()
	h.pruneFreedBytes = reg.NewHistogram("lp_prune_freed_bytes",
		"sizes of objects reclaimed by PRUNE-mode collections", obs.ByteBuckets)
	h.pruneStaleAge = reg.NewHistogram("lp_prune_staleness_age",
		"stale counter of objects reclaimed by PRUNE-mode collections", obs.StaleAgeBuckets)
}

// PruneTally is a prune sweep's samples for the two prune histograms: the
// per-bucket counts and sums in plain words the sweep owns, so sampling a
// reclaimed object costs no atomic add. MergePruned adds it to the
// histograms once per cycle.
type PruneTally struct {
	bytes, age       []uint64
	bytesSum, ageSum uint64
}

// RecordPrunedFree samples one object reclaimed during a prune cycle into
// the sweep's tally. The GC sweep calls it (ModePrune only) while the
// object's size and stale counter are still readable, before the clock
// advances. Disabled observability reduces it to one nil check.
func (h *Heap) RecordPrunedFree(t *PruneTally, obj *Object) {
	if h.pruneFreedBytes == nil {
		return
	}
	if t.bytes == nil {
		t.bytes = make([]uint64, len(h.pruneFreedBytes.Bounds())+1)
		t.age = make([]uint64, len(h.pruneStaleAge.Bounds())+1)
	}
	size, stale := obj.Size(), uint64(h.Stale(obj))
	t.bytes[h.pruneFreedBytes.Bucket(size)]++
	t.bytesSum += size
	t.age[h.pruneStaleAge.Bucket(stale)]++
	t.ageSum += stale
}

// MergePruned adds a tally's samples to the prune histograms, one atomic
// add per touched bucket, and empties it for the next cycle.
func (h *Heap) MergePruned(t *PruneTally) {
	if t.bytes == nil {
		return
	}
	h.pruneFreedBytes.AddBatch(t.bytes, t.bytesSum)
	h.pruneStaleAge.AddBatch(t.age, t.ageSum)
	clear(t.bytes)
	clear(t.age)
	t.bytesSum, t.ageSum = 0, 0
}
