package gc

import (
	"reflect"
	"slices"
	"testing"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/heap"
	"leakpruning/internal/obs"
)

// rootSet is a simple RootVisitor over a slice of refs.
type rootSet struct {
	refs []heap.Ref
}

func (r *rootSet) VisitRoots(fn func(heap.Ref)) {
	for _, ref := range r.refs {
		fn(ref)
	}
}

type testHeap struct {
	reg   *heap.Registry
	h     *heap.Heap
	roots *rootSet
}

func newTestHeap(t *testing.T) *testHeap {
	t.Helper()
	reg := heap.NewRegistry()
	return &testHeap{reg: reg, h: heap.New(reg, 16<<20), roots: &rootSet{}}
}

func (th *testHeap) class(t *testing.T, name string, slots, scalar int) heap.ClassID {
	t.Helper()
	return th.reg.Define(name, slots, scalar)
}

func (th *testHeap) alloc(t *testing.T, cls heap.ClassID) heap.Ref {
	t.Helper()
	r, err := th.h.Allocate(cls)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (th *testHeap) link(src heap.Ref, slot int, tgt heap.Ref) {
	th.h.Get(src).SetRef(slot, tgt)
}

func (th *testHeap) collector(workers int) *Collector {
	return NewCollector(th.h, th.roots, workers)
}

func (th *testHeap) alive(r heap.Ref) bool {
	_, ok := th.h.Lookup(r.ID())
	return ok
}

func TestMarkSweepRetainsReachable(t *testing.T) {
	th := newTestHeap(t)
	node := th.class(t, "Node", 1, 0)
	a := th.alloc(t, node)
	b := th.alloc(t, node)
	c := th.alloc(t, node)
	dead := th.alloc(t, node)
	th.link(a, 0, b)
	th.link(b, 0, c)
	th.roots.refs = []heap.Ref{a}

	res := th.collector(1).Collect(Plan{Mode: ModeNormal})
	if res.ObjectsFreed != 1 || res.ObjectsLive != 3 {
		t.Fatalf("freed %d live %d", res.ObjectsFreed, res.ObjectsLive)
	}
	if th.alive(dead) {
		t.Fatal("unreachable object survived")
	}
	for _, r := range []heap.Ref{a, b, c} {
		if !th.alive(r) {
			t.Fatalf("reachable %v was freed", r)
		}
	}

	// A concurrent cycle's births are garbage, yet none is swept: the
	// first ones take the free slots the start pause marked (dead's among
	// them), the last is carved above the start's watermark.
	col := th.collector(1)
	cy := col.StartConcurrent(Plan{Mode: ModeNormal})
	below := th.h.MaxID()
	var born []heap.Ref
	for len(born) == 0 || born[len(born)-1].ID() < below {
		born = append(born, th.alloc(t, node))
	}
	if len(born) < 2 || !slices.Contains(born, dead) {
		t.Fatalf("births %v: want free slots (dead's %v among them) before a carve", born, dead)
	}
	cy.Mark()
	cy.Remark(nil, "")
	cy.Sweep()
	if res := cy.Finish(); res.ObjectsFreed != 0 || res.ObjectsLive != 3 {
		t.Fatalf("concurrent cycle: freed %d live %d, want 0 and 3", res.ObjectsFreed, res.ObjectsLive)
	}
	for _, r := range born {
		if !th.alive(r) {
			t.Fatalf("%v, born during the cycle, was swept (watermark %d)", r, below)
		}
	}
	if res := col.Collect(Plan{Mode: ModeNormal}); res.ObjectsFreed != uint64(len(born)) {
		t.Fatalf("the next cycle freed %d, want the %d births", res.ObjectsFreed, len(born))
	}
}

func TestMarkSweepFreesUnreachableCycle(t *testing.T) {
	th := newTestHeap(t)
	node := th.class(t, "Node", 1, 0)
	a := th.alloc(t, node)
	b := th.alloc(t, node)
	th.link(a, 0, b)
	th.link(b, 0, a) // cycle, no roots
	res := th.collector(1).Collect(Plan{Mode: ModeNormal})
	if res.ObjectsFreed != 2 {
		t.Fatalf("cycle not collected: freed %d", res.ObjectsFreed)
	}
}

func TestTagRefsArmsBarrier(t *testing.T) {
	th := newTestHeap(t)
	node := th.class(t, "Node", 1, 0)
	a := th.alloc(t, node)
	b := th.alloc(t, node)
	th.link(a, 0, b)
	th.roots.refs = []heap.Ref{a}

	th.collector(1).Collect(Plan{Mode: ModeNormal, TagRefs: true})
	if !th.h.Get(a).Ref(0).IsStaleTagged() {
		t.Fatal("traced reference must carry the stale-check tag")
	}
	// Without TagRefs the tag is left alone (INACTIVE state).
	th2 := newTestHeap(t)
	node2 := th2.class(t, "Node", 1, 0)
	a2 := th2.alloc(t, node2)
	b2 := th2.alloc(t, node2)
	th2.link(a2, 0, b2)
	th2.roots.refs = []heap.Ref{a2}
	th2.collector(1).Collect(Plan{Mode: ModeNormal})
	if th2.h.Get(a2).Ref(0).IsStaleTagged() {
		t.Fatal("INACTIVE collection must not tag references")
	}
}

func TestAgingOnlyWhenRequested(t *testing.T) {
	th := newTestHeap(t)
	node := th.class(t, "Node", 0, 0)
	a := th.alloc(t, node)
	th.roots.refs = []heap.Ref{a}
	col := th.collector(1)

	col.Collect(Plan{Mode: ModeNormal}) // no aging
	if th.h.Stale(th.h.Get(a)) != 0 {
		t.Fatal("stale counter aged without AgeStaleness")
	}
	col.Collect(Plan{Mode: ModeNormal, AgeStaleness: true}) // index 2: 0->1
	if th.h.Stale(th.h.Get(a)) != 1 {
		t.Fatalf("stale = %d after first aged GC", th.h.Stale(th.h.Get(a)))
	}
}

func TestPoisonedRefsNeverTraced(t *testing.T) {
	th := newTestHeap(t)
	node := th.class(t, "Node", 1, 0)
	a := th.alloc(t, node)
	b := th.alloc(t, node)
	th.h.Get(a).SetRef(0, b.WithPoison())
	th.roots.refs = []heap.Ref{a}
	res := th.collector(1).Collect(Plan{Mode: ModeNormal})
	if res.ObjectsFreed != 1 {
		t.Fatal("target of a poisoned reference must be reclaimed")
	}
	if th.alive(b) {
		t.Fatal("poisoned target survived")
	}
	// The poisoned slot itself is untouched.
	if !th.h.Get(a).Ref(0).IsPoisoned() {
		t.Fatal("poison bit lost during collection")
	}
}

func TestOnFreeHook(t *testing.T) {
	th := newTestHeap(t)
	node := th.class(t, "Node", 0, 64)
	dead := th.alloc(t, node)
	var freed []heap.ObjectID
	th.collector(1).Collect(Plan{
		Mode:   ModeNormal,
		OnFree: func(id heap.ObjectID, class heap.ClassID, size uint64) { freed = append(freed, id) },
	})
	if len(freed) != 1 || freed[0] != dead.ID() {
		t.Fatalf("OnFree got %v", freed)
	}
}

// TestParallelTraceEquivalence: over a heap whose closure spills (so
// helpers are launched and steal) every cycle's result and surviving heap —
// identities, staleness, tagged reference words — are those of the serial
// tracer, at any worker count.
func TestParallelTraceEquivalence(t *testing.T) {
	type cycle struct {
		res  Result
		live map[heap.ObjectID]string
	}
	run := func(workers int) []cycle {
		th := newTestHeap(t)
		node := th.class(t, "TreeNode", 2, 32)
		// A binary tree of depth 10 plus some garbage.
		var grow func(depth int) heap.Ref
		grow = func(depth int) heap.Ref {
			r := th.alloc(t, node)
			if depth > 0 {
				th.link(r, 0, grow(depth-1))
				th.link(r, 1, grow(depth-1))
			}
			return r
		}
		tree := grow(10)
		for i := 0; i < 500; i++ {
			th.alloc(t, node) // garbage
		}
		hg, dropped := buildHourglass(t, th), buildHourglass(t, th)
		th.roots.refs = []heap.Ref{tree, hg.root, dropped.root}
		col := th.collector(workers)
		var out []cycle
		for i, plan := range []Plan{
			{Mode: ModeNormal, TagRefs: true, AgeStaleness: true},
			{Mode: ModeSelect, TagRefs: true, AgeStaleness: true, Candidate: staleTarget},
			{Mode: ModePrune, TagRefs: true, AgeStaleness: true, ShouldPrune: staleTarget},
		} {
			if i == 1 {
				th.roots.refs = th.roots.refs[:2] // the second hourglass dies here
			}
			res := col.Collect(plan)
			res.Duration, res.MarkDuration, res.StaleDuration, res.SweepDuration = 0, 0, 0, 0
			out = append(out, cycle{res, liveSnapshot(th.h)})
		}
		if workers > 1 && col.scratch.launches == 0 {
			t.Fatalf("workers=%d: no helper was launched, the heap does not spill", workers)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		for i, got := range run(workers) {
			if got.res != want[i].res {
				t.Fatalf("workers=%d cycle %d: result %+v, serial %+v", workers, i, got.res, want[i].res)
			}
			assertSameLiveSet(t, got.live, want[i].live)
		}
	}
}

func TestSelectModeCandidatesAndStaleClosure(t *testing.T) {
	th := newTestHeap(t)
	holder := th.class(t, "Holder", 1, 0)
	leaf := th.class(t, "Leaf", 0, 100)

	h1 := th.alloc(t, holder)
	l1 := th.alloc(t, leaf)
	th.link(h1, 0, l1)
	th.h.SetStale(th.h.Get(l1), 3) // stale target: candidate
	th.roots.refs = []heap.Ref{h1}

	var got []struct {
		src, tgt heap.ClassID
		bytes    uint64
	}
	res := th.collector(1).Collect(Plan{
		Mode:      ModeSelect,
		Candidate: func(src, tgt heap.ClassID, stale uint8) bool { return stale >= 2 },
		AccountStaleBytes: func(src, tgt heap.ClassID, bytes uint64) {
			got = append(got, struct {
				src, tgt heap.ClassID
				bytes    uint64
			}{src, tgt, bytes})
		},
	})
	if res.Candidates != 1 {
		t.Fatalf("candidates = %d", res.Candidates)
	}
	if len(got) != 1 || got[0].src != holder || got[0].tgt != leaf {
		t.Fatalf("stale closure accounting: %+v", got)
	}
	if got[0].bytes != th.h.Get(l1).Size() {
		t.Fatalf("bytes = %d, want %d", got[0].bytes, th.h.Get(l1).Size())
	}
	// The deferred candidate is still retained (SELECT never reclaims).
	if !th.alive(l1) {
		t.Fatal("SELECT collection reclaimed a candidate target")
	}
}

func TestPruneModePoisonsAndReclaims(t *testing.T) {
	th := newTestHeap(t)
	holder := th.class(t, "Holder", 1, 0)
	leaf := th.class(t, "Leaf", 1, 100)

	h1 := th.alloc(t, holder)
	l1 := th.alloc(t, leaf)
	l2 := th.alloc(t, leaf) // reachable only through l1
	th.link(h1, 0, l1)
	th.link(l1, 0, l2)
	th.h.SetStale(th.h.Get(l1), 3)
	th.roots.refs = []heap.Ref{h1}

	pruned := 0
	res := th.collector(1).Collect(Plan{
		Mode: ModePrune,
		ShouldPrune: func(src, tgt heap.ClassID, stale uint8) bool {
			return src == holder && tgt == leaf && stale >= 2
		},
		OnPrune: func(srcID heap.ObjectID, slot int, src, tgt heap.ClassID) { pruned++ },
	})
	if res.PrunedRefs != 1 || pruned != 1 {
		t.Fatalf("pruned %d refs (hook %d)", res.PrunedRefs, pruned)
	}
	if th.alive(l1) || th.alive(l2) {
		t.Fatal("pruned subtree must be reclaimed")
	}
	slot := th.h.Get(h1).Ref(0)
	if !slot.IsPoisoned() || !slot.IsStaleTagged() {
		t.Fatalf("pruned slot = %v, want both low bits set (§4.3)", slot)
	}
	if slot.ID() != l1.ID() {
		t.Fatal("poisoning must preserve the reference's object ID")
	}
}

// TestSweepFreeOrderIndependentOfWorkers pins the property every recorded
// oracle (replay, chaos equivalence, pipeline isolation) rests on: after a
// collection, the IDs the allocator recycles do not depend on how many
// trace workers marked (and so filled the sweep's bitmaps) or how they
// were scheduled.
func TestSweepFreeOrderIndependentOfWorkers(t *testing.T) {
	const objects, reallocs = 20000, 6000
	recycled := func(workers int) []heap.ObjectID {
		th := newTestHeap(t)
		node := th.class(t, "Node", 1, 16)
		// One hub holds the live half, so its scan spills and helpers steal:
		// who marks an object must not show in the free lists either.
		hub := th.alloc(t, th.class(t, "Hub", objects/2, 0))
		th.roots.refs = []heap.Ref{hub}
		ctx := th.h.NewAllocContext()
		defer th.h.ReleaseContext(&ctx)
		alloc := func() heap.Ref {
			r, err := th.h.AllocateCtx(&ctx, node)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		for i := 0; i < objects; i++ {
			if r := alloc(); i%2 == 0 {
				th.link(hub, i/2, r) // odd half is garbage
			}
		}
		col := th.collector(workers)
		if res := col.Collect(Plan{Mode: ModeNormal}); res.ObjectsFreed != objects/2 {
			t.Fatalf("workers=%d freed %d objects, want %d", workers, res.ObjectsFreed, objects/2)
		}
		if workers > 1 && col.scratch.launches == 0 {
			t.Fatalf("workers=%d: the closure launched no helper", workers)
		}
		ids := make([]heap.ObjectID, reallocs)
		for i := range ids {
			ids[i] = alloc().ID()
		}
		return ids
	}

	want := recycled(1)
	for run := 0; run < 6; run++ {
		workers := []int{2, 4, 8}[run%3]
		got := recycled(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: allocation %d after a %d-worker cycle got ID %d, 1-worker cycle gave %d",
					run, i, workers, got[i], want[i])
			}
		}
	}
}

// TestPruneHistogramsMatchPerObjectObservation: the sweep tallies the prune
// histograms' samples privately and merges them once per cycle; what
// lp_prune_freed_bytes and lp_prune_staleness_age end up holding — every
// bucket, sum and count — must be what observing each reclaimed object one
// at a time gives, at any worker count, and a second PRUNE cycle adds only
// its own samples.
func TestPruneHistogramsMatchPerObjectObservation(t *testing.T) {
	const objects = 12000 // ≥ 4096 slots, so a 4-worker sweep really shards
	for _, workers := range []int{1, 4} {
		th := newTestHeap(t)
		o := obs.New()
		th.h.SetObs(o)
		// Sizes on both sides of several lp_prune_freed_bytes bounds.
		classes := []heap.ClassID{
			th.class(t, "Tiny", 1, 0), th.class(t, "Small", 1, 47), th.class(t, "Mid", 2, 240),
			th.class(t, "Page", 0, 1100),
		}
		big := th.class(t, "Big", 0, 20000)
		ref := obs.New().Registry()
		wantBytes := ref.NewHistogram("bytes", "", obs.ByteBuckets)
		wantAge := ref.NewHistogram("age", "", obs.StaleAgeBuckets)
		for i := 0; i < objects; i++ {
			cls := classes[i%len(classes)]
			if i%64 == 5 {
				cls = big
			}
			r := th.alloc(t, cls)
			obj := th.h.Get(r)
			th.h.SetStale(obj, uint8(i*7%(heap.MaxStale+1)))
			if i%3 == 0 {
				th.roots.refs = append(th.roots.refs, r)
				continue
			}
			wantBytes.Observe(obj.Size())
			wantAge.Observe(uint64(th.h.Stale(obj)))
		}
		c := th.collector(workers)
		res := c.Collect(Plan{Mode: ModePrune})
		if res.ObjectsFreed != wantBytes.Count() {
			t.Fatalf("workers=%d: freed %d objects, want %d", workers, res.ObjectsFreed, wantBytes.Count())
		}
		check := func(cycle string) {
			t.Helper()
			want := map[string]*obs.Histogram{"lp_prune_freed_bytes": wantBytes, "lp_prune_staleness_age": wantAge}
			for _, m := range o.Registry().Snapshot() {
				w := want[m.Name]
				if w == nil {
					continue
				}
				delete(want, m.Name)
				got := m.Histogram
				if got.Sum != w.Sum() || got.Count != w.Count() || !reflect.DeepEqual(got.Counts, w.BucketCounts()) {
					t.Errorf("workers=%d %s after the %s: counts %v sum %d count %d, per-object observation gives %v / %d / %d",
						workers, m.Name, cycle, got.Counts, got.Sum, got.Count, w.BucketCounts(), w.Sum(), w.Count())
				}
			}
			if len(want) != 0 {
				t.Fatalf("workers=%d: prune histograms missing from the registry: %v", workers, want)
			}
		}
		check("first PRUNE cycle")
		// A following non-prune cycle samples nothing.
		th.roots.refs = th.roots.refs[:len(th.roots.refs)/2]
		if res := c.Collect(Plan{Mode: ModeNormal}); res.ObjectsFreed == 0 {
			t.Fatalf("workers=%d: the ModeNormal cycle freed nothing", workers)
		}
		check("ModeNormal cycle")
		// A second PRUNE cycle reclaims every remaining object.
		for _, r := range th.roots.refs {
			obj := th.h.Get(r)
			wantBytes.Observe(obj.Size())
			wantAge.Observe(uint64(th.h.Stale(obj)))
		}
		th.roots.refs = nil
		c.Collect(Plan{Mode: ModePrune})
		check("second PRUNE cycle")
	}
}

// TestSweepBatchesLeaveOneBatchFreeLists: the sweep publishes its frees
// 256 at a time, yet the free list ends up as one FreeBatch of all the dead
// IDs in ascending order leaves it. Each batch of the ascending dead takes
// the free-list lock once and draws the free-list corruption fault there,
// so the sweep draws exactly once per 256 dead. A sweep that kept more than
// a batch before publishing would draw fewer times, one that published
// sooner more. Injected corruption is repaired under the same lock, so it
// leaves the free list as it was.
func TestSweepBatchesLeaveOneBatchFreeLists(t *testing.T) {
	const objects = 6000 // two thirds garbage: 4000 dead, over 15 batches
	// 256, not heap.SweepBatch: the draws are pinned where the sweep's
	// batches have always put them.
	const batch = 256
	script := func() (*testHeap, []heap.Ref) {
		th := newTestHeap(t)
		node := th.class(t, "Node", 1, 16)
		hub := th.alloc(t, th.class(t, "Hub", objects/3, 0))
		th.roots.refs = []heap.Ref{hub}
		// Four allocation contexts take turns in runs of 50.
		ctxs := make([]heap.AllocContext, 4)
		for i := range ctxs {
			ctxs[i] = th.h.NewAllocContext()
		}
		refs := make([]heap.Ref, objects)
		for i := range refs {
			r, err := th.h.AllocateCtx(&ctxs[i/50%len(ctxs)], node)
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = r
			if i%3 == 0 {
				th.link(hub, i/3, r)
			}
		}
		for i := range ctxs {
			th.h.ReleaseContext(&ctxs[i])
		}
		return th, refs
	}
	for _, workers := range []int{1, 2, 4} {
		swept, refs := script()
		inj := faultinject.New(uint64(workers))
		inj.Arm(faultinject.ShardFreeListCorruption, 0.5)
		swept.h.SetFaultInjector(inj)
		col := swept.collector(workers)
		res := col.Collect(Plan{Mode: ModeNormal})
		if res.ObjectsFreed < 10*batch {
			t.Fatalf("workers=%d: freed %d objects, want at least %d", workers, res.ObjectsFreed, 10*batch)
		}
		var dead []heap.ObjectID
		for _, r := range refs {
			if !swept.alive(r) {
				dead = append(dead, r.ID())
			}
		}
		if uint64(len(dead)) != res.ObjectsFreed {
			t.Fatalf("workers=%d: %d script objects dead, cycle freed %d", workers, len(dead), res.ObjectsFreed)
		}
		slices.Sort(dead)
		ref, _ := script()
		ref.h.FreeBatch(dead)
		if got, want := swept.h.FreeList(), ref.h.FreeList(); !slices.Equal(got, want) {
			t.Fatalf("workers=%d: free list %v, one FreeBatch leaves %v", workers, got, want)
		}
		if got, draws := inj.Draws(faultinject.ShardFreeListCorruption), (len(dead)+batch-1)/batch; got != uint64(draws) {
			t.Fatalf("workers=%d: the sweep drew free-list corruption %d times, want %d (once per batch of %d)",
				workers, got, draws, batch)
		}
		if fires, repairs := inj.Fires(faultinject.ShardFreeListCorruption), swept.h.FreeListRepairs(); fires == 0 || repairs != fires {
			t.Fatalf("workers=%d: %d injected corruptions, %d repairs; want some, all repaired", workers, fires, repairs)
		}
	}
}

// TestSweepFreesOffloadedObject: an offloaded object the sweep frees gives
// its bytes back to the disk account and none to the heap's used bytes,
// which fall by the resident dead alone; both count as freed.
func TestSweepFreesOffloadedObject(t *testing.T) {
	th := newTestHeap(t)
	th.h.SetDiskLimit(1 << 20)
	node := th.class(t, "Node", 1, 100)
	keep, resident, offloaded := th.alloc(t, node), th.alloc(t, node), th.alloc(t, node)
	if err := th.h.Offload(offloaded.ID()); err != nil {
		t.Fatal(err)
	}
	th.roots.refs = []heap.Ref{keep}
	size, used := th.h.Get(resident).Size(), th.h.BytesUsed()
	res := th.collector(1).Collect(Plan{Mode: ModeNormal})
	if res.ObjectsFreed != 2 || res.BytesFreed != 2*size {
		t.Fatalf("freed %d objects, %d bytes; want 2, %d", res.ObjectsFreed, res.BytesFreed, 2*size)
	}
	if th.alive(resident) || th.alive(offloaded) || !th.alive(keep) {
		t.Fatal("the sweep freed the wrong objects")
	}
	if d := th.h.Disk(); d.BytesUsed != 0 {
		t.Fatalf("disk still charged %d bytes after the sweep", d.BytesUsed)
	}
	if got := th.h.BytesUsed(); got != used-size {
		t.Fatalf("used bytes %d after the sweep, want %d (only the resident object's %d credited)", got, used-size, size)
	}
	if st := th.h.Stats(); st.ObjectsFreed != 2 || st.BytesFreed != 2*size {
		t.Fatalf("heap stats count %d objects, %d bytes freed; want 2, %d", st.ObjectsFreed, st.BytesFreed, 2*size)
	}
	if v := th.h.Audit(); len(v) != 0 {
		t.Fatalf("audit after the sweep: %v", v)
	}
}
