package heap

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"leakpruning/internal/faultinject"
)

// TestRecycledSlotStateCleared is the regression test for recycled-slot
// hygiene: FreeBatch must clear flags (not just size/class/refs), birth
// must reset the stale counter the dead object left, and a recycled slot
// must read unmarked once the next cycle has cleared the mark bitmap.
func TestRecycledSlotStateCleared(t *testing.T) {
	reg := NewRegistry()
	cls := reg.Define("N", 2, 0)
	h := New(reg, 1<<20)
	h.SetDiskLimit(1 << 20)

	r, err := h.Allocate(cls)
	if err != nil {
		t.Fatal(err)
	}
	id := r.ID()
	obj := h.Get(r)
	h.SetStale(obj, 5)
	var cc ChunkCache
	h.GetCached(r, &cc)
	cc.Mark(id, false) // a past collection reached it
	if err := h.Offload(id); err != nil || !obj.IsOffloaded() {
		t.Fatalf("offload of a fresh object: %v", err)
	}
	h.FreeBatch([]ObjectID{id})

	// The dead slot's flags are clean (cleared by FreeBatch, not by a later
	// Allocate happening to overwrite them).
	slot := h.slot(id)
	if got := atomic.LoadUint32(&slot.flags); got != 0 {
		t.Fatalf("freed slot flags = %#x, want 0", got)
	}

	r2, err := h.Allocate(cls)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ID() != id {
		t.Fatalf("slot not recycled: got %d, want %d", r2.ID(), id)
	}
	obj2 := h.Get(r2)
	if s := h.Stale(obj2); s != 0 {
		t.Fatalf("recycled stale = %d", s)
	}
	if obj2.IsOffloaded() {
		t.Fatal("recycled object inherited the offload bit")
	}
	if d := h.Disk(); d.BytesUsed != 0 {
		t.Fatalf("disk still charged %d bytes for the freed object", d.BytesUsed)
	}
	// Neither death nor birth touches the bitmap; the next cycle's clear
	// does.
	h.ClearMarks()
	if h.MarkBit(id) {
		t.Fatal("recycled slot appears marked after the next cycle's clear")
	}
}

// TestAllocContextTLAB checks the TLAB quota accounting: reservations are
// visible in BytesUsed, allocation totals stay exact once the owner has
// published its births, and releasing the context restores exactness.
func TestAllocContextTLAB(t *testing.T) {
	reg := NewRegistry()
	cls := reg.Define("N", 1, 40) // 64 bytes each
	h := New(reg, 1<<20)
	size := ObjectSize(1, 40)

	ctx := h.NewAllocContext()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := h.AllocateCtx(&ctx, cls); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Stats()
	if st.ObjectsAlloc != 0 {
		t.Fatalf("allocations visible in Stats before the context settled: %+v", st)
	}
	unpublished := st
	ctx.AddPending(&unpublished)
	if unpublished != st {
		t.Fatalf("births visible to AddPending before the owner published them: %+v", unpublished)
	}
	ctx.Publish()
	ctx.AddPending(&st)
	if st.BytesAlloc != n*size || st.ObjectsAlloc != n || st.ObjectsUsed != n {
		t.Fatalf("alloc totals: %+v", st)
	}
	if want := n*size + ctx.Reserved(); st.BytesUsed != want {
		t.Fatalf("BytesUsed = %d, want live %d + reserved %d", st.BytesUsed, n*size, ctx.Reserved())
	}

	h.ReleaseContext(&ctx)
	if ctx.Reserved() != 0 {
		t.Fatalf("Reserved after release = %d", ctx.Reserved())
	}
	if got := h.BytesUsed(); got != n*size {
		t.Fatalf("BytesUsed after release = %d, want %d", got, n*size)
	}
	if st := h.Stats(); st.BytesAlloc != n*size || st.ObjectsAlloc != n || st.ObjectsUsed != n {
		t.Fatalf("alloc totals after release: %+v", st)
	}
	h.ReleaseContext(&ctx) // idempotent
	if got := h.BytesUsed(); got != n*size {
		t.Fatalf("double release changed BytesUsed to %d", got)
	}
}

// TestAllocContextHeapFull fills the heap through a context and checks that
// a failed allocation charges nothing and that outstanding reservations
// never push BytesUsed past the limit.
func TestAllocContextHeapFull(t *testing.T) {
	reg := NewRegistry()
	cls := reg.Define("B", 0, 1000)
	h := New(reg, 4000)
	ctx := h.NewAllocContext()
	allocs := 0
	for {
		_, err := h.AllocateCtx(&ctx, cls)
		if err != nil {
			if !errors.Is(err, ErrHeapFull) {
				t.Fatal(err)
			}
			break
		}
		allocs++
		if allocs > 10 {
			t.Fatal("heap never filled")
		}
	}
	if h.BytesUsed() > h.Limit() {
		t.Fatalf("BytesUsed %d exceeds limit %d", h.BytesUsed(), h.Limit())
	}
	h.ReleaseContext(&ctx)
	st := h.Stats()
	if st.BytesAlloc-st.BytesFreed != st.BytesUsed {
		t.Fatalf("accounting broken after exhaustion: %+v", st)
	}
	if st.ObjectsAlloc != uint64(allocs) {
		t.Fatalf("ObjectsAlloc = %d, want %d", st.ObjectsAlloc, allocs)
	}
}

// TestShardedAllocFreeParallel races context allocations against parallel
// FreeBatch calls over disjoint dead sets (the sweep-worker pattern) and
// checks the accounting invariant afterwards. Run with -race.
func TestShardedAllocFreeParallel(t *testing.T) {
	reg := NewRegistry()
	cls := reg.Define("N", 2, 16)
	h := New(reg, 1<<28)
	const goroutines = 8
	const perG = 4000

	refs := make([][]Ref, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := h.NewAllocContext()
			defer h.ReleaseContext(&ctx)
			out := make([]Ref, 0, perG)
			for i := 0; i < perG; i++ {
				r, err := h.AllocateCtx(&ctx, cls)
				if err != nil {
					t.Error(err)
					return
				}
				out = append(out, r)
			}
			refs[g] = out
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Free half of each goroutine's set from parallel "sweep workers".
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dead := make([]ObjectID, 0, perG/2)
			for i := 0; i < perG; i += 2 {
				dead = append(dead, refs[g][i].ID())
			}
			h.FreeBatch(dead)
		}(g)
	}
	wg.Wait()

	st := h.Stats()
	const total = goroutines * perG
	if st.ObjectsAlloc != total || st.ObjectsFreed != total/2 || st.ObjectsUsed != total/2 {
		t.Fatalf("object counts: %+v", st)
	}
	if st.BytesAlloc-st.BytesFreed != st.BytesUsed {
		t.Fatalf("byte invariant broken: %+v", st)
	}
	// Survivors are intact and dereferenceable.
	for g := 0; g < goroutines; g++ {
		for i := 1; i < perG; i += 2 {
			if _, ok := h.Lookup(refs[g][i].ID()); !ok {
				t.Fatalf("survivor %d lost", refs[g][i].ID())
			}
		}
	}
}

// TestMarkFreeSlots pins the start pause's pre-mark: after ClearMarks and
// MarkFreeSlots the set bits are exactly the slots on the free list
// — the freed ones, a settled run's unused ones and the carved ones no run
// holds — and never a live object, whatever the last cycle marked. A birth
// from a free list then lands in a marked slot.
func TestMarkFreeSlots(t *testing.T) {
	reg := NewRegistry()
	cls := reg.Define("N", 0, 16)
	h := New(reg, 1<<20)
	ctx := h.NewAllocContext()
	var ids []ObjectID
	for i := 0; i < 300; i++ {
		r, err := h.AllocateCtx(&ctx, cls)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID())
	}
	h.ReleaseContext(&ctx) // a run of 64 - 300%64 unused slots goes back
	var dead []ObjectID
	var cc ChunkCache
	for i, id := range ids {
		h.GetCached(MakeRef(id), &cc)
		if i%3 == 0 {
			dead = append(dead, id)
		} else {
			cc.Mark(id, true) // the last cycle reached the survivors
		}
	}
	h.FreeBatch(dead)

	h.ClearMarks()
	h.MarkFreeSlots()
	onList := map[ObjectID]bool{}
	for _, id := range h.free {
		onList[id] = true
	}
	if want := len(dead) + 64 - len(ids)%64; len(onList) != want {
		t.Fatalf("%d slots on the free list, want %d freed and unused", len(onList), want)
	}
	for id := ObjectID(0); id < h.MaxID(); id++ {
		set := h.MarkBit(id)
		if set != onList[id] {
			t.Fatalf("slot %d: bit %v, on a free list %v", id, set, onList[id])
		}
		if _, live := h.Lookup(id); set && live {
			t.Fatalf("slot %d is live but marked free", id)
		}
	}
	for _, id := range dead {
		if !onList[id] {
			t.Fatalf("freed slot %d is on no free list", id)
		}
	}
	for i := 0; i < len(onList); i++ {
		r, err := h.AllocateCtx(&ctx, cls)
		if err != nil {
			t.Fatal(err)
		}
		if !h.MarkBit(r.ID()) {
			t.Fatalf("birth %d of %d took an unmarked slot", i, len(onList))
		}
	}
}

// TestFreerPublishesEverySweepBatch: a Freer holds at most 256 frees. The
// first 255 leave the free list, the counters and the corruption probe as
// they were; the 256th publishes the whole batch onto the free list in the
// order freed, under one lock that draws the free-list corruption fault
// once; Flush publishes the rest with one more draw. Injected corruption is
// repaired under the same lock, so it leaves the list as it was.
func TestFreerPublishesEverySweepBatch(t *testing.T) {
	// 256, not SweepBatch: the draws are pinned where the sweep's batches
	// have always put them.
	const batch = 256
	reg := NewRegistry()
	cls := reg.Define("N", 1, 16)
	h := New(reg, 1<<30)
	inj := faultinject.New(1)
	inj.Arm(faultinject.ShardFreeListCorruption, 0.5)
	h.SetFaultInjector(inj)
	ctx := h.NewAllocContext()
	var ids []ObjectID
	for i := 0; i < batch+10; i++ {
		r, err := h.AllocateCtx(&ctx, cls)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID())
	}
	h.ReleaseContext(&ctx)
	slices.Reverse(ids) // not the order they were born in: the list keeps the order freed
	before := h.FreeList()
	want := slices.Clone(before)
	published := func(stage string, list []ObjectID, n int, draws uint64) {
		t.Helper()
		if got := h.FreeList(); !slices.Equal(got, list) {
			t.Fatalf("%s: free list %v, want %v", stage, got, list)
		}
		if st := h.Stats(); st.ObjectsFreed != uint64(n) || st.ObjectsUsed != uint64(len(ids)-n) {
			t.Fatalf("%s: %d freed, %d used; want %d, %d", stage, st.ObjectsFreed, st.ObjectsUsed, n, len(ids)-n)
		}
		if got := inj.Draws(faultinject.ShardFreeListCorruption); got != draws {
			t.Fatalf("%s: %d free-list corruption draws, want %d", stage, got, draws)
		}
	}
	f := h.NewFreer()
	for i, id := range ids {
		f.Free(id, h.slot(id))
		want = append(want, id)
		switch i + 1 {
		case batch - 1:
			published("one free short of a batch", before, 0, 0)
		case batch:
			published("a batch", want, batch, 1)
		}
	}
	f.Flush()
	published("Flush", want, len(ids), 2)
	if fires, repairs := inj.Fires(faultinject.ShardFreeListCorruption), h.FreeListRepairs(); repairs != fires {
		t.Fatalf("%d injected corruptions, %d repairs; want all repaired", fires, repairs)
	}
	auditMustBeClean(t, h, "after Flush")
}
