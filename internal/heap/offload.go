package heap

import (
	"errors"
	"sync/atomic"
)

// Disk-offload support: the Melt/LeakSurvivor-style leak-tolerance baseline
// (§6, §7) moves highly stale objects to disk instead of reclaiming them.
// The heap models that with a second byte account: an offloaded object
// keeps its identity and references but its bytes count against the disk
// budget instead of the heap limit. Accesses fault the object back in.
//
// All offload-state transitions (the residency flag plus the disk
// counters) are serialized under diskMu, so a fault-in racing another
// fault-in or an offload settles deterministically. The heap-side byte
// movement goes through the shared atomic used counter.

// ErrDiskFull is returned by Offload when the configured disk budget cannot
// hold the object — the condition under which the paper says disk-based
// approaches ultimately crash.
var ErrDiskFull = errors.New("heap: offload disk is full")

// flagOffloaded marks an object whose bytes live on the simulated disk.
const flagOffloaded uint32 = 1 << 0

// IsOffloaded reports whether the object currently resides on disk.
func (o *Object) IsOffloaded() bool {
	return atomic.LoadUint32(&o.flags)&flagOffloaded != 0
}

func (o *Object) setOffloaded(v bool) {
	for {
		cur := atomic.LoadUint32(&o.flags)
		next := cur
		if v {
			next |= flagOffloaded
		} else {
			next &^= flagOffloaded
		}
		if atomic.CompareAndSwapUint32(&o.flags, cur, next) {
			return
		}
	}
}

// DiskStats reports the offload accounting.
type DiskStats struct {
	Limit     uint64
	BytesUsed uint64
	Offloads  uint64 // objects ever moved out
	FaultIns  uint64 // objects ever moved back
}

// SetDiskLimit configures the simulated disk budget (0 disables offload).
func (h *Heap) SetDiskLimit(limit uint64) {
	h.diskMu.Lock()
	defer h.diskMu.Unlock()
	h.disk.Limit = limit
}

// Disk returns a snapshot of the offload accounting.
func (h *Heap) Disk() DiskStats {
	h.diskMu.Lock()
	defer h.diskMu.Unlock()
	return h.disk
}

// Offload moves the object's bytes from the heap account to the disk
// account. It fails with ErrDiskFull when the disk budget cannot hold it,
// and is a no-op for already-offloaded objects.
func (h *Heap) Offload(id ObjectID) error {
	obj := h.slot(id)
	if obj == nil || obj.Size() == 0 {
		panic("heap: offload of a dead object")
	}
	h.diskMu.Lock()
	if obj.IsOffloaded() {
		h.diskMu.Unlock()
		return nil
	}
	if h.disk.BytesUsed+obj.Size() > h.disk.Limit {
		h.diskMu.Unlock()
		return ErrDiskFull
	}
	obj.setOffloaded(true)
	h.disk.BytesUsed += obj.Size()
	h.disk.Offloads++
	h.diskMu.Unlock()
	h.creditBytes(obj.Size())
	return nil
}

// FaultIn moves an offloaded object's bytes back into the heap account. It
// fails with ErrHeapFull when the heap cannot hold it (the caller collects
// or offloads more and retries), and is a no-op for resident objects.
func (h *Heap) FaultIn(id ObjectID) error {
	obj := h.slot(id)
	if obj == nil || obj.Size() == 0 {
		panic("heap: fault-in of a dead object")
	}
	if !obj.IsOffloaded() {
		return nil
	}
	// Reserve the heap bytes first (no locks held), then settle the state
	// transition under diskMu; if another fault-in won the race, give the
	// reservation back.
	if !h.reserveExact(obj.Size()) {
		return ErrHeapFull
	}
	h.diskMu.Lock()
	if !obj.IsOffloaded() {
		h.diskMu.Unlock()
		h.creditBytes(obj.Size())
		return nil
	}
	obj.setOffloaded(false)
	h.disk.BytesUsed -= obj.Size()
	h.disk.FaultIns++
	h.diskMu.Unlock()
	return nil
}
