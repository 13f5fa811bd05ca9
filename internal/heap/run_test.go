package heap

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// TestSettleRestoresFreeList checks what a flush promises: after a context
// that used part of its run is released, the shard's free list is exactly
// what it was before minus the slots that became objects, the audit is
// clean, and Stats is exact.
func TestSettleRestoresFreeList(t *testing.T) {
	reg := NewRegistry()
	cls := reg.Define("N", 0, 16)
	h := New(reg, 1<<20)

	// Seed one shard with a known free list: allocate and free 100 objects.
	ctx := h.NewAllocContext()
	var ids []ObjectID
	for i := 0; i < 100; i++ {
		r, err := h.AllocateCtx(&ctx, cls)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID())
	}
	h.ReleaseContext(&ctx)
	h.FreeBatch(ids)
	s := &h.shards[ctx.home]
	before := append([]ObjectID(nil), s.free...)

	for _, used := range []int{1, 40, freshBlock - 1, freshBlock, freshBlock + 1} {
		var got []ObjectID
		for i := 0; i < used; i++ {
			r, err := h.AllocateCtx(&ctx, cls)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, r.ID())
		}
		if ctx.n == ctx.next && used%freshBlock != 0 {
			t.Fatalf("used=%d: context holds no unused slots, the test is not exercising a partial run", used)
		}
		h.ReleaseContext(&ctx)
		// LIFO: the objects took the top `used` entries, top first.
		for i, id := range got {
			if want := before[len(before)-1-i]; id != want {
				t.Fatalf("used=%d: allocation %d got slot %d, want %d", used, i, id, want)
			}
		}
		if want := before[:len(before)-used]; fmt.Sprint(s.free) != fmt.Sprint(want) {
			t.Fatalf("used=%d: free list after release\n got %v\nwant %v", used, s.free, want)
		}
		auditMustBeClean(t, h, fmt.Sprintf("after releasing a run with %d slots used", used))
		if st := h.Stats(); st.ObjectsAlloc-st.ObjectsFreed != st.ObjectsUsed || st.ObjectsUsed != uint64(used) ||
			st.BytesAlloc-st.BytesFreed != st.BytesUsed {
			t.Fatalf("used=%d: stats after release: %+v", used, st)
		}
		// Freed in the order the list held them, the objects' slots put
		// the list back as it started.
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		h.FreeBatch(got)
		if fmt.Sprint(s.free) != fmt.Sprint(before) {
			t.Fatalf("used=%d: free list after freeing the run's objects differs from the start", used)
		}
	}
}

// TestDuplicateInRunIsRepaired plants a duplicate free-list entry so that
// both copies land in one run (at refill both name a dead slot, so neither
// is discarded there). The second copy must be dropped at the point of use
// and counted, never handed out.
func TestDuplicateInRunIsRepaired(t *testing.T) {
	reg := NewRegistry()
	cls := reg.Define("N", 0, 16)
	h := New(reg, 1<<20)
	ctx := h.NewAllocContext()
	var ids []ObjectID
	for i := 0; i < 10; i++ {
		r, err := h.AllocateCtx(&ctx, cls)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID())
	}
	h.ReleaseContext(&ctx)
	h.FreeBatch(ids)
	s := &h.shards[ctx.home]
	dup := s.free[len(s.free)-3]
	s.free = append(s.free, dup) // now the top entry and the fourth from the top

	seen := map[ObjectID]bool{}
	for i := 0; i < 2*freshBlock; i++ {
		r, err := h.AllocateCtx(&ctx, cls)
		if err != nil {
			t.Fatal(err)
		}
		if seen[r.ID()] {
			t.Fatalf("slot %d handed out twice", r.ID())
		}
		seen[r.ID()] = true
	}
	if !seen[dup] {
		t.Fatalf("duplicated slot %d was never handed out at all", dup)
	}
	if got := h.FreeListRepairs(); got != 1 {
		t.Fatalf("FreeListRepairs = %d, want 1", got)
	}
	h.ReleaseContext(&ctx)
	auditMustBeClean(t, h, "after a duplicate landed in a run")

	// The other way round: the first copy is used, the second is still in
	// the run when the context is released. It must not go back on the list.
	h.FreeBatch([]ObjectID{dup})
	s.free = append(s.free, dup)
	if r, err := h.AllocateCtx(&ctx, cls); err != nil || r.ID() != dup {
		t.Fatalf("AllocateCtx = %v, %v; want slot %d", r, err, dup)
	}
	h.ReleaseContext(&ctx)
	if got := h.FreeListRepairs(); got != 2 {
		t.Fatalf("FreeListRepairs after release = %d, want 2", got)
	}
	auditMustBeClean(t, h, "after releasing a run that held a live duplicate")
}

// TestRunsUnderConcurrentFreeAndCarve races K contexts against a goroutine
// that FreeBatches what they allocate, on a heap small enough in slots that
// runs are refilled from recycled slots and from fresh carves alike. No ID
// may be live twice, and the books must balance once every context is
// released. Run with -race.
func TestRunsUnderConcurrentFreeAndCarve(t *testing.T) {
	reg := NewRegistry()
	cls := reg.Define("N", 1, 8)
	h := New(reg, 1<<26)
	const (
		workers = 6
		perG    = 6000
		batch   = 50
	)
	toFree := make(chan []ObjectID, workers)
	var freer sync.WaitGroup
	freer.Add(1)
	var freed uint64
	go func() {
		defer freer.Done()
		for ids := range toFree {
			h.FreeBatch(ids)
			freed += uint64(len(ids))
		}
	}()

	var liveMu sync.Mutex
	live := map[ObjectID]bool{}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := h.NewAllocContext()
			defer h.ReleaseContext(&ctx)
			var mine []ObjectID
			for i := 0; i < perG; i++ {
				r, err := h.AllocateCtx(&ctx, cls)
				if err != nil {
					t.Error(err)
					return
				}
				liveMu.Lock()
				if live[r.ID()] {
					t.Errorf("slot %d handed out while still live", r.ID())
				}
				live[r.ID()] = true
				liveMu.Unlock()
				mine = append(mine, r.ID())
				if len(mine) == batch {
					// Hand the older half to the freer; forget them first.
					dead := append([]ObjectID(nil), mine[:batch/2]...)
					liveMu.Lock()
					for _, id := range dead {
						delete(live, id)
					}
					liveMu.Unlock()
					toFree <- dead
					mine = append(mine[:0], mine[batch/2:]...)
				}
			}
		}()
	}
	wg.Wait()
	close(toFree)
	freer.Wait()

	st := h.Stats()
	if st.ObjectsAlloc != workers*perG || st.ObjectsFreed != freed {
		t.Fatalf("object totals: %+v (freed %d)", st, freed)
	}
	if st.BytesAlloc-st.BytesFreed != st.BytesUsed || st.ObjectsAlloc-st.ObjectsFreed != st.ObjectsUsed {
		t.Fatalf("books do not balance after release: %+v", st)
	}
	if st.ObjectsUsed != uint64(len(live)) {
		t.Fatalf("ObjectsUsed = %d, the test holds %d live", st.ObjectsUsed, len(live))
	}
	if st.AllocShardLocks == 0 || st.AllocShardLocks > st.ObjectsAlloc {
		t.Fatalf("AllocShardLocks = %d for %d allocations", st.AllocShardLocks, st.ObjectsAlloc)
	}
	auditMustBeClean(t, h, "after concurrent runs, frees and carves")
}

// TestAllocShardLocksPerAllocation states the point of runs as a number: a
// long-lived context takes about one shard lock per freshBlock allocations
// once slots recycle through its own shard, and releasing a context whose
// run is used up takes none.
func TestAllocShardLocksPerAllocation(t *testing.T) {
	reg := NewRegistry()
	cls := reg.Define("N", 0, 16)
	h := New(reg, 1<<24)
	ctx := h.NewAllocContext()
	const n = 100 * freshBlock
	ids := make([]ObjectID, 0, n)
	for i := 0; i < n; i++ {
		r, err := h.AllocateCtx(&ctx, cls)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID())
	}
	before := h.Stats().AllocShardLocks
	h.ReleaseContext(&ctx) // the run is used up: only the counts fold
	if got := h.Stats().AllocShardLocks - before; got != 0 {
		t.Fatalf("releasing a context with no unused slots took %d shard locks, want 0", got)
	}
	if st := h.Stats(); st.ObjectsAlloc != n || st.ObjectsUsed != n {
		t.Fatalf("release did not fold the counts: %+v", st)
	}
	h.FreeBatch(ids)
	warm := h.Stats().AllocShardLocks
	for i := 0; i < n; i++ {
		if _, err := h.AllocateCtx(&ctx, cls); err != nil {
			t.Fatal(err)
		}
	}
	h.ReleaseContext(&ctx)
	if got := h.Stats().AllocShardLocks - warm; got > n/freshBlock+1 {
		t.Fatalf("%d allocations from recycled slots took %d shard locks, want at most %d", n, got, n/freshBlock+1)
	}
}

// TestRefillSkipsEmptyShards: a refill passes an empty shard without taking
// its lock. A context whose preferred shard is empty and whose k-th
// neighbour holds slots refills with one shard lock, and one on an empty
// heap takes one, at the carve pass.
func TestRefillSkipsEmptyShards(t *testing.T) {
	reg := NewRegistry()
	cls := reg.Define("N", 0, 16)
	h := New(reg, 1<<24)
	locks := func(c *AllocContext) uint64 {
		t.Helper()
		before := h.Stats().AllocShardLocks
		if _, err := h.AllocateCtx(c, cls); err != nil {
			t.Fatal(err)
		}
		return h.Stats().AllocShardLocks - before
	}

	first := h.NewAllocContext()
	if got := locks(&first); got != 1 {
		t.Fatalf("a refill on an empty heap took %d shard locks, want 1 (the carve)", got)
	}
	// Settling the run puts its 63 unused slots back on its home shard, the
	// only shard with any.
	h.ReleaseContext(&first)
	const k = 5
	c := AllocContext{shard: (first.home - k) & shardMask}
	if got := locks(&c); got != 1 {
		t.Fatalf("a refill %d shards from the only non-empty one took %d shard locks, want 1", k, got)
	}
	if c.home != first.home {
		t.Fatalf("the run came from shard %d, want %d", c.home, first.home)
	}
	h.ReleaseContext(&c)
	auditMustBeClean(t, h, "after refills past empty shards")
}
