package heap

import (
	"sync"
	"testing"
)

// Lazy-sweep interaction audit (concurrent mark mode moves the sweep out of
// the stop-the-world pause, so it now runs against live ChunkCaches and
// TLAB allocation contexts). The design holds up because chunks never move
// once materialized — a cached chunk pointer can never go stale — and
// because an object's size word is its atomically-published liveness bit,
// so a cached-path lookup that races a free resolves to a clean nil, never
// to a half-freed object. These tests pin both properties.

// TestChunkCacheSeesFreeAndRecycle: a warm ChunkCache must observe a slot's
// death immediately (the dead check reads the liveness word, not the
// cache), and must serve the recycled slot's new occupant through the same
// cached chunk pointer.
func TestChunkCacheSeesFreeAndRecycle(t *testing.T) {
	reg := NewRegistry()
	small := reg.Define("Small", 1, 16)
	big := reg.Define("Big", 2, 16)
	h := New(reg, 1<<20)

	ref, err := h.Allocate(small)
	if err != nil {
		t.Fatal(err)
	}
	var cc ChunkCache
	if h.GetCached(ref, &cc) == nil {
		t.Fatal("live object invisible through cache")
	}
	h.FreeBatch([]ObjectID{ref.ID()})
	if obj := h.GetCached(ref, &cc); obj != nil {
		t.Fatalf("freed slot still served through warm cache: %+v", obj)
	}
	// LIFO recycling hands the freed slot straight back; the warm cache must
	// serve the new occupant, not any stale view of the old one.
	ref2, err := h.Allocate(big)
	if err != nil {
		t.Fatal(err)
	}
	if ref2.ID() != ref.ID() {
		t.Fatalf("expected deterministic LIFO recycling: got slot %d, want %d", ref2.ID(), ref.ID())
	}
	obj := h.GetCached(ref2, &cc)
	if obj == nil {
		t.Fatal("recycled slot invisible through warm cache")
	}
	if obj.Class() != big {
		t.Fatalf("warm cache served stale class %d for recycled slot", obj.Class())
	}
	if viol := h.Audit(); len(viol) != 0 {
		t.Fatalf("audit after recycle: %v", viol)
	}
}

// TestCachedLookupDuringBackgroundFree races GetCached probes and TLAB
// allocation against FreeBatch running on another goroutine — the shape of
// a background sweep under mostly-concurrent marking. Every probe must
// resolve to nil or to a fully-initialized object (the liveness word is
// published last), and the allocator must be able to recycle the freed
// slots mid-flight without corrupting the accounting.
func TestCachedLookupDuringBackgroundFree(t *testing.T) {
	reg := NewRegistry()
	cls := reg.Define("Node", 2, 64)
	h := New(reg, 8<<20)

	const n = 4096
	refs := make([]Ref, n)
	for i := range refs {
		r, err := h.Allocate(cls)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Free in sweep-sized batches, as the background sweeper does.
		const batch = 128
		ids := make([]ObjectID, 0, batch)
		for _, r := range refs {
			ids = append(ids, r.ID())
			if len(ids) == batch {
				h.FreeBatch(ids)
				ids = ids[:0]
			}
		}
		h.FreeBatch(ids)
	}()

	// Mutator side: probe through a warm cache and keep allocating from a
	// TLAB context while the frees land. The allocator recycles freed slots
	// LIFO, so any slot our own allocations reclaim is legitimately live
	// again — track them for the final deadness sweep.
	var cc ChunkCache
	ctx := h.NewAllocContext()
	recycled := make(map[ObjectID]bool)
	live := 0
	for round := 0; round < 4; round++ {
		for _, r := range refs {
			obj := h.GetCached(r, &cc)
			if obj == nil {
				continue
			}
			live++
			// The free may land right after the probe: it zeroes the size
			// word first, so a class read while the size is still nonzero
			// afterwards was read from a live object.
			if c := obj.Class(); obj.Size() != 0 && c != cls && !recycled[r.ID()] {
				t.Errorf("GetCached returned class %d, want %d", c, cls)
			}
		}
		for i := 0; i < 64; i++ {
			r, err := h.AllocateCtx(&ctx, cls)
			if err != nil {
				t.Errorf("AllocateCtx during background free: %v", err)
				continue
			}
			recycled[r.ID()] = true
		}
	}
	wg.Wait()
	_ = live // any mix of hits and misses is legal; soundness is per-probe
	h.ReleaseContext(&ctx)
	if viol := h.Audit(); len(viol) != 0 {
		t.Fatalf("audit after background free: %v", viol)
	}
	for _, r := range refs {
		if recycled[r.ID()] {
			continue
		}
		if h.GetCached(r, &cc) != nil {
			t.Fatalf("slot %d still live after every free completed", r.ID())
		}
	}
}
