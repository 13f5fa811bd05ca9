package heap

import (
	"sync"
	"testing"
)

// Concurrent-sweep interaction audit (concurrent mark mode moves the sweep
// out of the stop-the-world pause, so it runs beside live ChunkCaches and
// TLAB allocation contexts). The design holds up because chunks never move
// once materialized — a cached chunk pointer can never go stale — and
// because the sweep frees only unreachable objects: no mutator can probe a
// slot while the sweep clears it, and the free-list lock that puts a freed
// slot on the free list orders the clearing before the birth that pops it.
// These tests pin both properties.

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

// TestCachedLookupDuringBackgroundFree runs a Freer on another goroutine,
// freeing unreachable objects in ascending order as a concurrent sweep
// does, while this goroutine probes the objects it holds through a warm
// ChunkCache and keeps allocating from a TLAB context. The dying and the
// held objects alternate in the same chunks, and the allocator recycles
// freed slots mid-flight, so under -race this checks that a free's plain
// header stores are ordered before the birth that reuses the slot (the
// free-list lock) and never race a probe of a live neighbour. Every probe must
// see the object's own class and size, and the accounting must stay sound.
func TestCachedLookupDuringBackgroundFree(t *testing.T) {
	reg := NewRegistry()
	cls := reg.Define("Node", 2, 64)
	h := New(reg, 8<<20)

	const n = 4096
	var held, dying []Ref
	for i := 0; i < 2*n; i++ {
		r, err := h.Allocate(cls)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			held = append(held, r)
		} else {
			dying = append(dying, r)
		}
	}
	size := h.Get(held[0]).Size()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f := h.NewFreer()
		for _, r := range dying {
			f.Free(r.ID(), h.slot(r.ID()))
		}
		f.Flush()
	}()

	// Mutator side: probe the held objects, and those it allocated into
	// recycled slots, through a warm cache while the frees land.
	var cc ChunkCache
	ctx := h.NewAllocContext()
	probe := func(r Ref) {
		obj := h.GetCached(r, &cc)
		if obj == nil {
			t.Fatalf("held object %d not served through the cache", r.ID())
		}
		if c, sz := obj.Class(), obj.Size(); c != cls || sz != size {
			t.Fatalf("object %d: class %d size %d, want %d and %d", r.ID(), c, sz, cls, size)
		}
	}
	for round := 0; round < 8; round++ {
		for _, r := range held {
			probe(r)
		}
		for i := 0; i < 64; i++ {
			r, err := h.AllocateCtx(&ctx, cls)
			if err != nil {
				t.Fatalf("AllocateCtx during background free: %v", err)
			}
			held = append(held, r)
		}
	}
	wg.Wait()
	h.ReleaseContext(&ctx)
	for _, r := range held {
		probe(r)
	}
	if viol := h.Audit(); len(viol) != 0 {
		t.Fatalf("audit after background free: %v", viol)
	}
	if st := h.Stats(); st.ObjectsUsed != uint64(len(held)) || st.ObjectsFreed != n {
		t.Fatalf("%d objects used, %d freed; want %d and %d", st.ObjectsUsed, st.ObjectsFreed, len(held), n)
	}
}
