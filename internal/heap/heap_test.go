package heap

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"leakpruning/internal/faultinject"
)

func newTestHeap(t *testing.T, limit uint64) (*Heap, ClassID, ClassID) {
	t.Helper()
	reg := NewRegistry()
	pair := reg.Define("Pair", 2, 0)
	blob := reg.Define("Blob", 0, 1000)
	return New(reg, limit), pair, blob
}

func TestAllocateAccounting(t *testing.T) {
	h, pair, blob := newTestHeap(t, 1<<20)
	r1, err := h.Allocate(pair)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Allocate(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := ObjectSize(2, 0) + ObjectSize(0, 1000)
	st := h.Stats()
	if st.BytesUsed != want {
		t.Fatalf("BytesUsed = %d, want %d", st.BytesUsed, want)
	}
	if st.ObjectsUsed != 2 || st.ObjectsAlloc != 2 {
		t.Fatalf("object counts: %+v", st)
	}
	if h.BytesUsed() != want {
		t.Fatalf("atomic BytesUsed mirror = %d, want %d", h.BytesUsed(), want)
	}
	if r1.ID() == r2.ID() {
		t.Fatal("distinct objects share an ID")
	}
}

func TestAllocateShapeOverrides(t *testing.T) {
	h, pair, _ := newTestHeap(t, 1<<20)
	r, err := h.Allocate(pair, WithRefSlots(5), WithScalarBytes(100))
	if err != nil {
		t.Fatal(err)
	}
	obj := h.Get(r)
	if obj.NumRefs() != 5 {
		t.Fatalf("NumRefs = %d", obj.NumRefs())
	}
	if obj.Size() != ObjectSize(5, 100) {
		t.Fatalf("Size = %d", obj.Size())
	}
}

func TestAllocateHeapFull(t *testing.T) {
	h, _, blob := newTestHeap(t, 3000)
	if _, err := h.Allocate(blob); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Allocate(blob); err != nil {
		t.Fatal(err)
	}
	_, err := h.Allocate(blob)
	if !errors.Is(err, ErrHeapFull) {
		t.Fatalf("expected ErrHeapFull, got %v", err)
	}
	// The failed allocation must not be charged.
	if got := h.Stats().BytesUsed; got != 2*ObjectSize(0, 1000) {
		t.Fatalf("BytesUsed after failed alloc = %d", got)
	}
}

// TestAllocateLeavesExactBooks: Allocate returns its context's quota and
// folds its counts before it returns, on every path. After each call,
// BytesUsed is the live objects' bytes and Stats is what a slot-at-a-time
// allocator reports: AllocShardLocks aside, which counts the settle's
// lock too.
func TestAllocateLeavesExactBooks(t *testing.T) {
	h, pair, blob := newTestHeap(t, 2*ObjectSize(0, 1000)+ObjectSize(2, 0)+100)
	inj := faultinject.New(1)
	h.SetFaultInjector(inj)
	want := Stats{Limit: h.Limit()}
	var ids []ObjectID
	step := func(name string, cls ClassID, opts []AllocOption, fail bool) {
		t.Helper()
		r, err := h.Allocate(cls, opts...)
		if fail != (err != nil) {
			t.Fatalf("%s: Allocate = %v, %v", name, r, err)
		}
		if !fail {
			size := h.Get(r).Size()
			ids = append(ids, r.ID())
			want.BytesUsed += size
			want.BytesAlloc += size
			want.ObjectsUsed++
			want.ObjectsAlloc++
		}
		var live uint64
		h.ForEach(func(_ ObjectID, obj *Object) { live += obj.Size() })
		if h.BytesUsed() != live {
			t.Fatalf("%s: BytesUsed = %d, live objects hold %d", name, h.BytesUsed(), live)
		}
		got := h.Stats()
		got.AllocShardLocks = 0
		if got != want {
			t.Fatalf("%s: Stats = %+v, want %+v", name, got, want)
		}
		auditMustBeClean(t, h, name)
	}
	step("pair", pair, nil, false)
	step("blob", blob, nil, false)
	step("blob", blob, nil, false)
	step("heap full", blob, nil, true)
	step("oversized shape", pair, []AllocOption{WithRefSlots(maxRefSlots + 1)}, true)
	inj.Arm(faultinject.AllocLimitRace, 1.0)
	inj.Limit(faultinject.AllocLimitRace, 1)
	step("injected limit race", pair, nil, true)

	h.FreeBatch(ids[1:2])
	want.BytesUsed -= ObjectSize(0, 1000)
	want.ObjectsUsed--
	want.BytesFreed += ObjectSize(0, 1000)
	want.ObjectsFreed++
	step("recycled blob", blob, nil, false)
	if ids[3] != ids[1] {
		t.Fatalf("the recycled blob took ID %d, want the freed %d", ids[3], ids[1])
	}
}

func TestFreeAndRecycle(t *testing.T) {
	h, pair, _ := newTestHeap(t, 1<<20)
	r, err := h.Allocate(pair)
	if err != nil {
		t.Fatal(err)
	}
	id := r.ID()
	h.FreeBatch([]ObjectID{id})
	st := h.Stats()
	if st.BytesUsed != 0 || st.ObjectsUsed != 0 || st.ObjectsFreed != 1 {
		t.Fatalf("stats after free: %+v", st)
	}
	// The freed slot is recycled with clean state.
	r2, err := h.Allocate(pair)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ID() != id {
		t.Fatalf("expected slot recycling: got %d, want %d", r2.ID(), id)
	}
	obj := h.Get(r2)
	if h.Stale(obj) != 0 {
		t.Fatal("recycled object must have a clear stale counter")
	}
	for i := 0; i < obj.NumRefs(); i++ {
		if !obj.Ref(i).IsNull() {
			t.Fatalf("recycled slot %d not cleared", i)
		}
	}
}

// TestGetCached checks the per-thread chunk-cache lookup agrees with Get on
// live objects and degrades to nil (instead of panicking) on null and dead
// references — the VM turns nil into a trap after leaving its critical
// region, so GetCached must never unwind on its own.
func TestGetCached(t *testing.T) {
	h, pair, _ := newTestHeap(t, 1<<20)
	var cc ChunkCache
	if h.GetCached(Ref(0), &cc) != nil {
		t.Fatal("GetCached(null) must be nil")
	}
	r1, _ := h.Allocate(pair)
	r2, _ := h.Allocate(pair)
	if h.GetCached(r1, &cc) != h.Get(r1) {
		t.Fatal("GetCached disagrees with Get")
	}
	// Second lookup in the same chunk hits the cached pointer.
	if h.GetCached(r2, &cc) != h.Get(r2) {
		t.Fatal("cached-chunk lookup disagrees with Get")
	}
	h.FreeBatch([]ObjectID{r1.ID()})
	if h.GetCached(r1, &cc) != nil {
		t.Fatal("GetCached on a freed slot must be nil")
	}
	// A stale cache from one heap must not leak results across chunks it
	// has never seen: an ID far beyond anything allocated maps to an
	// unpopulated chunk and must yield nil, not a panic.
	far := MakeRef(ObjectID(1 << 20))
	if h.GetCached(far, &cc) != nil {
		t.Fatal("GetCached on an unallocated chunk must be nil")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	h, pair, _ := newTestHeap(t, 1<<20)
	r, _ := h.Allocate(pair)
	h.FreeBatch([]ObjectID{r.ID()})
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	h.FreeBatch([]ObjectID{r.ID()})
}

func TestGetDeadPanics(t *testing.T) {
	h, pair, _ := newTestHeap(t, 1<<20)
	r, _ := h.Allocate(pair)
	h.FreeBatch([]ObjectID{r.ID()})
	defer func() {
		if recover() == nil {
			t.Fatal("Get of a freed object must panic")
		}
	}()
	h.Get(r)
}

func TestGetNullPanics(t *testing.T) {
	h, _, _ := newTestHeap(t, 1<<20)
	defer func() {
		if recover() == nil {
			t.Fatal("Get(Null) must panic")
		}
	}()
	h.Get(Null)
}

func TestForEachAndLookup(t *testing.T) {
	h, pair, _ := newTestHeap(t, 1<<20)
	var refs []Ref
	for i := 0; i < 10; i++ {
		r, err := h.Allocate(pair)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	h.FreeBatch([]ObjectID{refs[3].ID(), refs[7].ID()})

	seen := map[ObjectID]bool{}
	h.ForEach(func(id ObjectID, obj *Object) {
		seen[id] = true
	})
	if len(seen) != 8 {
		t.Fatalf("ForEach visited %d objects, want 8", len(seen))
	}
	if seen[refs[3].ID()] || seen[refs[7].ID()] {
		t.Fatal("ForEach visited freed objects")
	}
	if _, ok := h.Lookup(refs[3].ID()); ok {
		t.Fatal("Lookup found a freed object")
	}
	if _, ok := h.Lookup(refs[0].ID()); !ok {
		t.Fatal("Lookup missed a live object")
	}
}

// TestAllocFreeAccountingQuick drives random allocate/free sequences and
// checks the fundamental accounting invariant: BytesUsed equals the sum of
// live object sizes, and allocation totals never decrease.
func TestAllocFreeAccountingQuick(t *testing.T) {
	prop := func(ops []uint16) bool {
		reg := NewRegistry()
		cls := reg.Define("X", 1, 0)
		h := New(reg, 1<<20)
		var live []Ref
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op/3) % len(live)
				h.FreeBatch([]ObjectID{live[i].ID()})
				live = append(live[:i], live[i+1:]...)
				continue
			}
			r, err := h.Allocate(cls, WithScalarBytes(int(op%512)))
			if err != nil {
				return false
			}
			live = append(live, r)
		}
		var want uint64
		for _, r := range live {
			want += h.Get(r).Size()
		}
		st := h.Stats()
		return st.BytesUsed == want &&
			st.ObjectsUsed == uint64(len(live)) &&
			st.BytesAlloc >= st.BytesUsed &&
			st.BytesAlloc-st.BytesFreed == st.BytesUsed
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFullness(t *testing.T) {
	s := Stats{Limit: 100, BytesUsed: 25}
	if s.Fullness() != 0.25 {
		t.Fatalf("Fullness = %v", s.Fullness())
	}
	if (Stats{}).Fullness() != 0 {
		t.Fatal("zero-limit fullness must be 0")
	}
}

func TestObjectSize(t *testing.T) {
	if got := ObjectSize(0, 0); got != HeaderBytes {
		t.Fatalf("empty object size = %d", got)
	}
	if got := ObjectSize(3, 100); got != HeaderBytes+3*RefSlotBytes+100 {
		t.Fatalf("ObjectSize(3,100) = %d", got)
	}
}

// TestChunkBoundaryGrowth allocates across object-table chunk boundaries
// (4096 objects per chunk) and verifies identity and accounting stay
// intact, including interleaved frees.
func TestChunkBoundaryGrowth(t *testing.T) {
	reg := NewRegistry()
	cls := reg.Define("Tiny", 1, 0)
	h := New(reg, 1<<30)
	const n = 3*chunkSize + 17
	refs := make([]Ref, 0, n)
	for i := 0; i < n; i++ {
		r, err := h.Allocate(cls)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	if got := h.Stats().ObjectsUsed; got != n {
		t.Fatalf("ObjectsUsed = %d, want %d", got, n)
	}
	// Spot-check identity across chunk boundaries: linking and reading back
	// through objects in different chunks.
	a := refs[chunkSize-1]
	b := refs[chunkSize] // first object of the second chunk
	h.Get(a).SetRef(0, b)
	if got := h.Get(a).Ref(0); got != b {
		t.Fatalf("cross-chunk link = %v, want %v", got, b)
	}
	// Free every third object and verify the rest survive.
	freed := 0
	for i := 0; i < n; i += 3 {
		h.FreeBatch([]ObjectID{refs[i].ID()})
		freed++
	}
	if got := h.Stats().ObjectsUsed; got != uint64(n-freed) {
		t.Fatalf("ObjectsUsed after frees = %d, want %d", got, n-freed)
	}
	if _, ok := h.Lookup(refs[1].ID()); !ok {
		t.Fatal("survivor lost")
	}
}

// TestOversizedShapeRefused pins that a shape the 32-bit size word or the
// slot-count field cannot hold fails with ErrHeapFull, on a heap whose limit
// would admit it, and is never born with a wrapped size or slot count; the
// largest size the word holds is still born whole. The limit is only a
// number: scalar bytes use no memory.
func TestOversizedShapeRefused(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   []AllocOption
		refuse bool
	}{
		{"slots 1<<29", []AllocOption{WithRefSlots(1 << 29)}, true},
		{"slots past the count field", []AllocOption{WithRefSlots(maxRefSlots + 1)}, true},
		{"scalar 4 GiB", []AllocOption{WithScalarBytes(4 << 30)}, true},
		{"scalar 16 GiB", []AllocOption{WithScalarBytes(16 << 30)}, true},
		{"size one past the word", []AllocOption{WithRefSlots(1), WithScalarBytes(maxObjectSize - int(ObjectSize(1, 0)) + 1)}, true},
		{"size fills the word", []AllocOption{WithRefSlots(1), WithScalarBytes(maxObjectSize - int(ObjectSize(1, 0)))}, false},
	} {
		for _, withCtx := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ctx=%v", tc.name, withCtx), func(t *testing.T) {
				reg := NewRegistry()
				cls := reg.Define("A", 0, 0)
				h := New(reg, 1<<40)
				ctx := h.NewAllocContext()
				var r Ref
				var err error
				if withCtx {
					r, err = h.AllocateCtx(&ctx, cls, tc.opts...)
				} else {
					r, err = h.Allocate(cls, tc.opts...)
				}
				h.ReleaseContext(&ctx)
				refSlots, scalarBytes := h.ResolveShape(cls, tc.opts)
				if tc.refuse {
					if !errors.Is(err, ErrHeapFull) {
						t.Fatalf("got %v, %v; want ErrHeapFull", r, err)
					}
					if st := h.Stats(); st.BytesUsed != 0 || st.ObjectsAlloc != 0 {
						t.Fatalf("a refused allocation was charged: %+v", st)
					}
				} else {
					if err != nil {
						t.Fatal(err)
					}
					obj := h.Get(r)
					if obj.Size() != ObjectSize(refSlots, scalarBytes) || obj.NumRefs() != refSlots {
						t.Fatalf("born with size %d and %d slots, want %d and %d",
							obj.Size(), obj.NumRefs(), ObjectSize(refSlots, scalarBytes), refSlots)
					}
					if h.BytesUsed() != obj.Size() {
						t.Fatalf("BytesUsed = %d, want %d", h.BytesUsed(), obj.Size())
					}
				}
				auditMustBeClean(t, h, tc.name)
			})
		}
	}
}

// TestLargeAllocation exercises a single object with many reference slots
// (a big array) and a large scalar payload.
func TestLargeAllocation(t *testing.T) {
	reg := NewRegistry()
	arr := reg.Define("BigArray", 0, 0)
	h := New(reg, 1<<30)
	r, err := h.Allocate(arr, WithRefSlots(100000), WithScalarBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	obj := h.Get(r)
	if obj.NumRefs() != 100000 {
		t.Fatalf("NumRefs = %d", obj.NumRefs())
	}
	if obj.Size() != ObjectSize(100000, 1<<20) {
		t.Fatalf("Size = %d", obj.Size())
	}
	obj.SetRef(99999, MakeRef(1))
	if obj.Ref(99999) != MakeRef(1) {
		t.Fatal("last slot lost")
	}
}

// TestRecycledSlotShrinksAndGrows reuses a freed slot for differently
// shaped objects.
func TestRecycledSlotShrinksAndGrows(t *testing.T) {
	reg := NewRegistry()
	big := reg.Define("Big", 16, 0)
	small := reg.Define("Small", 2, 0)
	h := New(reg, 1<<20)
	r1, _ := h.Allocate(big)
	id := r1.ID()
	h.FreeBatch([]ObjectID{id})
	r2, _ := h.Allocate(small)
	if r2.ID() != id {
		t.Skip("allocator did not recycle the slot")
	}
	if h.Get(r2).NumRefs() != 2 {
		t.Fatalf("recycled NumRefs = %d", h.Get(r2).NumRefs())
	}
	h.FreeBatch([]ObjectID{id})
	r3, _ := h.Allocate(big)
	if r3.ID() == id && h.Get(r3).NumRefs() != 16 {
		t.Fatalf("re-grown NumRefs = %d", h.Get(r3).NumRefs())
	}
}

// TestConcurrentAllocAndRead races allocations against reads of already
// published objects (run with -race).
func TestConcurrentAllocAndRead(t *testing.T) {
	reg := NewRegistry()
	cls := reg.Define("N", 1, 32)
	h := New(reg, 1<<28)
	const perWorker = 2000
	refs := make(chan Ref, 8*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r, err := h.Allocate(cls)
				if err != nil {
					t.Error(err)
					return
				}
				refs <- r
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r := <-refs
				obj := h.Get(r)
				obj.SetRef(0, r) // self-link
				if obj.Ref(0) != r {
					t.Error("self-link lost")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestChunkTableGrowsInOrder: a new heap has no chunk; materializing a far
// chunk materializes every one before it (a racing carve may ask for a
// later chunk first), lookups past the table report "never materialized",
// and a table header loaded before a growth still resolves every chunk it
// had to the same pointers.
func TestChunkTableGrowsInOrder(t *testing.T) {
	h := New(NewRegistry(), 1<<20)
	far := ObjectID(3<<chunkShift | 5) // the 4th chunk
	if h.slot(far) != nil || h.slot(1) != nil {
		t.Fatal("a new heap resolves a slot before any chunk exists")
	}
	h.ensureChunks(1)
	before := *h.chunks.Load()
	h.ensureChunks(far)
	if h.slot(far) == nil || h.slot(far-chunkSize) == nil {
		t.Fatal("slots in the materialized chunks do not resolve")
	}
	if _, ok := h.Lookup(far); ok {
		t.Fatal("Lookup reports an unallocated slot live")
	}
	if h.slot(far+chunkSize) != nil {
		t.Fatal("a slot past the table resolves")
	}
	if after := *h.chunks.Load(); len(before) != 1 || len(after) != 4 || after[0] != before[0] {
		t.Fatalf("table grew %d → %d chunks, first chunk moved: %v", len(before), len(after), after[0] != before[0])
	}
}
