package heap

import "fmt"

// Heap invariant auditor. Audit cross-checks every piece of redundant state
// the allocator and the collectors maintain — the global used-byte atomic,
// the allocation account, the disk account, and the shard free lists —
// against a ground-truth scan of the object table. It is the
// correctness backstop the chaos campaign (and every future performance PR)
// runs after collections: any drift between the fast-path counters and the
// actual objects is reported instead of silently compounding.
//
// Audit must run stop-the-world, after every allocation context has been
// released (the VM's flushTLABs); otherwise the used-byte counter
// legitimately exceeds the sum of live object sizes by the reserved quota,
// the allocation account lags by the contexts' pending allocations, and
// the dead slots held in their runs are on no free list — three false
// positives.

// maxAuditViolations bounds the report so a systematically corrupt heap
// does not build an unbounded string slice inside a stop-the-world section.
const maxAuditViolations = 64

// auditSink accumulates violations up to the cap.
type auditSink struct {
	violations []string
	dropped    int
}

func (a *auditSink) addf(format string, args ...any) {
	if len(a.violations) >= maxAuditViolations {
		a.dropped++
		return
	}
	a.violations = append(a.violations, fmt.Sprintf(format, args...))
}

func (a *auditSink) result() []string {
	if a.dropped > 0 {
		a.violations = append(a.violations, fmt.Sprintf("...and %d more violations", a.dropped))
	}
	return a.violations
}

// Audit verifies the heap's accounting and free-list invariants against a
// full scan of the object table and returns the violations found (empty
// means the heap is sound). The invariants checked:
//
//  1. The global used-byte counter equals the summed sizes of live,
//     heap-resident objects (offloaded objects are charged to disk).
//  2. The disk account equals the summed sizes of live offloaded objects.
//  3. The allocation account matches the live objects: bytes allocated
//     minus bytes freed is their summed size (resident plus offloaded),
//     ObjectsUsed is their number, and each is homed on a shard in range.
//  4. Every free-list entry names a dead, materialized slot; no slot
//     appears on two free lists (or twice on one); and every dead carved
//     slot is on exactly one free list.
//
// Call only while the heap is quiescent (stop-the-world) with every
// allocation context released.
func (h *Heap) Audit() []string {
	var sink auditSink

	next := ObjectID(h.next.Load())
	var residentBytes, offloadedBytes, totalLive uint64
	live := make([]bool, next)

	for id := ObjectID(1); id < next; id++ {
		obj := h.slot(id)
		if obj == nil {
			sink.addf("object %d: carved ID has no backing chunk", id)
			continue
		}
		if obj.Size() == 0 {
			continue
		}
		live[id] = true
		totalLive++
		if obj.home() >= numShards {
			sink.addf("object %d: home shard %d out of range", id, obj.home())
		}
		if obj.IsOffloaded() {
			offloadedBytes += obj.Size()
		} else {
			residentBytes += obj.Size()
		}
	}

	if used := h.used.Load(); used != residentBytes {
		sink.addf("global used-bytes %d != sum of live resident object sizes %d (contexts released?)",
			used, residentBytes)
	}
	if disk := h.Disk(); disk.BytesUsed != offloadedBytes {
		sink.addf("disk used-bytes %d != sum of live offloaded object sizes %d",
			disk.BytesUsed, offloadedBytes)
	}

	st := h.Stats()
	if got, want := st.BytesAlloc-st.BytesFreed, residentBytes+offloadedBytes; got != want {
		sink.addf("bytesAlloc-bytesFreed = %d, live object bytes = %d (contexts released?)", got, want)
	}
	if st.ObjectsUsed != totalLive {
		sink.addf("objectsAlloc-objectsFreed = %d, live objects = %d (contexts released?)",
			st.ObjectsUsed, totalLive)
	}

	var freeCount uint64
	onFreeList := make([]bool, next)
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		for _, id := range s.free {
			freeCount++
			switch {
			case id == 0 || id >= next:
				sink.addf("shard %d: free-list entry %d outside carved ID range", i, id)
			case live[id]:
				sink.addf("shard %d: free-list entry %d names a live slot", i, id)
			case onFreeList[id]:
				sink.addf("free-list entry %d appears more than once", id)
			default:
				onFreeList[id] = true
			}
		}
		s.mu.Unlock()
	}

	if carved := uint64(next) - 1; freeCount != carved-totalLive {
		sink.addf("free lists hold %d slots, want %d (carved %d - live %d; contexts released?)",
			freeCount, carved-totalLive, carved, totalLive)
	}

	return sink.result()
}
