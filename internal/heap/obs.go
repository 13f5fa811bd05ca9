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

// RecordPrunedFree samples one object reclaimed during a prune cycle into
// the prune histograms. The GC sweep calls it (ModePrune only) while the
// object's size and stale counter are still readable, before the clock
// advances. Disabled observability reduces it to one nil check.
func (h *Heap) RecordPrunedFree(obj *Object) {
	if h.pruneFreedBytes == nil {
		return
	}
	h.pruneFreedBytes.Observe(obj.Size())
	h.pruneStaleAge.Observe(uint64(h.Stale(obj)))
}
