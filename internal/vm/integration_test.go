package vm

import (
	"errors"
	"sync"
	"testing"

	"leakpruning/internal/core"
	"leakpruning/internal/edgetable"
	"leakpruning/internal/heap"
	"leakpruning/internal/vmerrors"
)

// TestConcurrentMutators runs several mutator goroutines, each with its own
// Thread, allocating and sharing objects through globals while collections
// interleave. Run with -race to exercise the synchronization story.
func TestConcurrentMutators(t *testing.T) {
	v := New(Options{HeapLimit: 4 << 20, EnableBarriers: true, GCWorkers: 4})
	node := v.DefineClass("Node", 2, 2048)
	shared := v.AddGlobal()

	const workers = 4
	const itersPerWorker = 300
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = v.RunThread("worker", func(th *Thread) {
				for i := 0; i < itersPerWorker; i++ {
					th.Scope(func() {
						n := th.New(node)
						// Publish through the shared global; other workers
						// may load and chase it concurrently.
						th.Store(n, 0, th.LoadGlobal(shared))
						th.StoreGlobal(shared, n)
						cur := th.LoadGlobal(shared)
						for d := 0; d < 8 && !cur.IsNull(); d++ {
							cur = th.Load(cur, 0)
						}
						// Drop the chain occasionally so the heap stays
						// bounded.
						if i%50 == 49 {
							th.StoreGlobal(shared, heap.Null)
						}
					})
				}
			})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if v.Stats().Collections == 0 {
		t.Fatal("expected collections under churn")
	}
}

// TestPoisonTrapCarriesAvertedOOM checks the full semantics chain: under
// the most-stale policy (which mispredicts by design), the eventual
// InternalError's cause must be the OutOfMemoryError recorded when the
// program first effectively exhausted memory.
func TestPoisonTrapCarriesAvertedOOM(t *testing.T) {
	v := New(Options{
		HeapLimit:      512 << 10,
		EnableBarriers: true,
		GCWorkers:      1,
		Policy:         core.MostStalePolicy{},
	})
	holder := v.DefineClass("Holder", 2, 0)
	payload := v.DefineClass("Payload", 0, 2048)
	session := v.DefineClass("Session", 0, 256)
	scratch := v.DefineClass("Scratch", 0, 64)
	g := v.AddGlobal()
	sg := v.AddGlobal()

	err := v.RunThread("main", func(th *Thread) {
		th.Scope(func() {
			s := th.New(session)
			h := th.New(holder)
			th.Store(h, 0, s)
			th.StoreGlobal(sg, h)
		})
		for i := 0; i < 100000; i++ {
			th.Scope(func() {
				h := th.New(holder)
				th.Store(h, 0, th.New(payload))
				th.Store(h, 1, th.LoadGlobal(g))
				th.StoreGlobal(g, h)
				for j := 0; j < 4; j++ {
					th.New(scratch)
				}
				if i%400 == 399 {
					// The rarely-used live session: most-stale will
					// eventually poison it, and this access traps.
					sh := th.LoadGlobal(sg)
					th.Load(sh, 0)
				}
			})
		}
	})
	if err == nil {
		t.Fatal("expected the most-stale policy to mispredict eventually")
	}
	var ie *vmerrors.InternalError
	if errors.As(err, &ie) {
		if ie.Cause == nil {
			t.Fatal("InternalError must carry the averted OOM as its cause")
		}
		if ie.Cause.HeapLimit == 0 && ie.Cause.BytesUsed == 0 {
			t.Fatal("averted OOM has no detail")
		}
	} else if !vmerrors.IsOOM(err) {
		t.Fatalf("unexpected error type: %v", err)
	}
}

// TestHeapNeverExceedsLimit: the hard bound holds at every collection
// sample, pruning or not — the paper's core claim of bounded resources.
func TestHeapNeverExceedsLimit(t *testing.T) {
	for _, policy := range []core.Policy{nil, core.DefaultPolicy{}} {
		limit := uint64(512 << 10)
		violated := false
		opts := Options{
			HeapLimit:      limit,
			EnableBarriers: true,
			GCWorkers:      1,
			Policy:         policy,
			OnGC: func(ev Event) {
				if ev.Heap.BytesUsed > limit {
					violated = true
				}
			},
		}
		v := New(opts)
		holder := v.DefineClass("Holder", 2, 0)
		payload := v.DefineClass("Payload", 0, 1024)
		g := v.AddGlobal()
		_ = v.RunThread("main", func(th *Thread) {
			for i := 0; i < 3000; i++ {
				th.Scope(func() {
					h := th.New(holder)
					th.Store(h, 0, th.New(payload))
					th.Store(h, 1, th.LoadGlobal(g))
					th.StoreGlobal(g, h)
				})
			}
		})
		if violated {
			t.Fatal("heap accounting exceeded the limit")
		}
		if v.HeapStats().BytesUsed > limit {
			t.Fatal("final heap above the limit")
		}
	}
}

// TestFullHeapOnlyEndToEnd: option (1) also tolerates the leak, just with a
// delayed first prune.
func TestFullHeapOnlyEndToEnd(t *testing.T) {
	v := New(Options{
		HeapLimit:      256 << 10,
		EnableBarriers: true,
		GCWorkers:      1,
		Policy:         core.DefaultPolicy{},
		FullHeapOnly:   true,
	})
	holder := v.DefineClass("Holder", 2, 0)
	payload := v.DefineClass("Payload", 0, 2048)
	scratch := v.DefineClass("Scratch", 0, 64)
	g := v.AddGlobal()
	err := v.RunThread("main", func(th *Thread) {
		for i := 0; i < 1500; i++ {
			th.Scope(func() {
				h := th.New(holder)
				th.Store(h, 0, th.New(payload))
				th.Store(h, 1, th.LoadGlobal(g))
				th.StoreGlobal(g, h)
				for j := 0; j < 4; j++ {
					th.New(scratch)
				}
			})
		}
	})
	if err != nil {
		t.Fatalf("FullHeapOnly run died: %v", err)
	}
	if v.Stats().PrunedRefs == 0 {
		t.Fatal("option (1) never pruned")
	}
	// The deferred OOM must be recorded with real exhaustion details.
	evs := v.PruneEvents()
	if len(evs) == 0 {
		t.Fatal("no prune events recorded")
	}
}

// TestPruneEventsAndEdgeTableConsistency: the pruned-reference totals agree
// between the controller's event log and the VM counters.
func TestPruneEventsAndEdgeTableConsistency(t *testing.T) {
	v := New(Options{
		HeapLimit:      256 << 10,
		EnableBarriers: true,
		GCWorkers:      1,
		Policy:         core.DefaultPolicy{},
	})
	holder := v.DefineClass("Holder", 2, 0)
	payload := v.DefineClass("Payload", 0, 2048)
	g := v.AddGlobal()
	_ = v.RunThread("main", func(th *Thread) {
		for i := 0; i < 1000; i++ {
			th.Scope(func() {
				h := th.New(holder)
				th.Store(h, 0, th.New(payload))
				th.Store(h, 1, th.LoadGlobal(g))
				th.StoreGlobal(g, h)
				th.New(v.DefineClass("Scratch", 0, 64))
			})
		}
	})
	var fromEvents uint64
	for _, ev := range v.PruneEvents() {
		fromEvents += uint64(ev.PrunedRefs)
	}
	if fromEvents == 0 {
		t.Fatal("no prunes happened")
	}
	if got := v.Stats().PrunedRefs; got != fromEvents {
		t.Fatalf("Stats.PrunedRefs = %d, events total %d", got, fromEvents)
	}
	var fromTable uint64
	v.EdgeTable().ForEach(func(e *edgetable.Entry) {
		fromTable += e.TimesPruned()
	})
	if fromTable != fromEvents {
		t.Fatalf("edge-table pruned total %d != events total %d", fromTable, fromEvents)
	}
}

// TestOffloadBaselineEndToEnd: the Melt-style baseline extends a dead leak
// by roughly the disk/heap ratio, faults objects back in on access, and
// dies with OOM once the disk budget is exhausted.
func TestOffloadBaselineEndToEnd(t *testing.T) {
	const heapLimit = 256 << 10
	run := func(disk uint64) (int, *VM, error) {
		v := New(Options{
			HeapLimit:      heapLimit,
			EnableBarriers: true,
			GCWorkers:      1,
			OffloadDisk:    disk,
		})
		holder := v.DefineClass("Holder", 2, 0)
		payload := v.DefineClass("Payload", 0, 2048)
		scratch := v.DefineClass("Scratch", 0, 64)
		g := v.AddGlobal()
		iters := 0
		err := v.RunThread("main", func(th *Thread) {
			for i := 0; i < 20000; i++ {
				iters = i + 1
				th.Scope(func() {
					h := th.New(holder)
					th.Store(h, 0, th.New(payload))
					th.Store(h, 1, th.LoadGlobal(g))
					th.StoreGlobal(g, h)
					for j := 0; j < 4; j++ {
						th.New(scratch)
					}
				})
			}
		})
		return iters, v, err
	}

	baseIters, _, baseErr := func() (int, *VM, error) {
		v := New(Options{HeapLimit: heapLimit, EnableBarriers: true, GCWorkers: 1})
		holder := v.DefineClass("Holder", 2, 0)
		payload := v.DefineClass("Payload", 0, 2048)
		g := v.AddGlobal()
		iters := 0
		err := v.RunThread("main", func(th *Thread) {
			for i := 0; i < 20000; i++ {
				iters = i + 1
				th.Scope(func() {
					h := th.New(holder)
					th.Store(h, 0, th.New(payload))
					th.Store(h, 1, th.LoadGlobal(g))
					th.StoreGlobal(g, h)
				})
			}
		})
		return iters, v, err
	}()
	if !vmerrors.IsOOM(baseErr) {
		t.Fatalf("base err = %v", baseErr)
	}

	meltIters, v, meltErr := run(3 * heapLimit)
	if !vmerrors.IsOOM(meltErr) {
		t.Fatalf("melt err = %v", meltErr)
	}
	ratio := float64(meltIters) / float64(baseIters)
	if ratio < 2.5 {
		t.Fatalf("offloading extended the run only %.1fx (base %d, melt %d)", ratio, baseIters, meltIters)
	}
	if v.OffloadStats().ObjectsMoved == 0 {
		t.Fatal("nothing was offloaded")
	}
	if v.OffloadStats().DiskFullHits == 0 {
		t.Fatal("the run should end because the disk filled")
	}
	if v.Disk().BytesUsed == 0 {
		t.Fatal("disk empty at the end")
	}
}

// TestOffloadFaultInOnAccess: touching an offloaded object brings it back
// and the program observes its references intact.
func TestOffloadFaultInOnAccess(t *testing.T) {
	v := New(Options{HeapLimit: 1 << 20, EnableBarriers: true, GCWorkers: 1, OffloadDisk: 1 << 20})
	node := v.DefineClass("Node", 1, 128)
	g := v.AddGlobal()
	err := v.RunThread("main", func(th *Thread) {
		a := th.New(node)
		b := th.New(node)
		th.Store(a, 0, b)
		th.StoreGlobal(g, a)
		// Force both out manually (as an offload round would).
		if err := v.heap.Offload(a.ID()); err != nil {
			t.Fatal(err)
		}
		if err := v.heap.Offload(b.ID()); err != nil {
			t.Fatal(err)
		}
		got := th.Load(a, 0) // faults `a` in; returns the ref to b
		if got != b {
			t.Fatalf("Load after offload = %v, want %v", got, b)
		}
		if v.heap.Get(a).IsOffloaded() {
			t.Fatal("source object still offloaded after access")
		}
		th.Store(got, 0, a) // faults b in for the write
		if v.heap.Get(b).IsOffloaded() {
			t.Fatal("written object still offloaded")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.OffloadStats().ObjectsFaults < 2 {
		t.Fatalf("fault-ins = %d", v.OffloadStats().ObjectsFaults)
	}
}

// TestOffloadOptionValidation: offloading is exclusive with pruning and
// needs barriers.
func TestOffloadOptionValidation(t *testing.T) {
	for _, opts := range []Options{
		{HeapLimit: 1 << 20, OffloadDisk: 1 << 20, EnableBarriers: true, Policy: core.DefaultPolicy{}},
		{HeapLimit: 1 << 20, OffloadDisk: 1 << 20, EnableBarriers: false},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("options %+v must be rejected", opts)
				}
			}()
			New(opts)
		}()
	}
}

// TestSurvivorEdgeKeepsNewObjectAlive: an object allocated after a
// collection and reachable only through a store into a survivor of that
// collection lives through the next ones. Every cycle traces the whole heap
// from the roots, so no store has to be remembered for it, in either mark
// mode.
func TestSurvivorEdgeKeepsNewObjectAlive(t *testing.T) {
	for _, mode := range []MarkMode{MarkSTW, MarkConcurrent} {
		t.Run(mode.String(), func(t *testing.T) {
			v := New(Options{HeapLimit: 1 << 20, EnableBarriers: true, GCWorkers: 1, MarkMode: mode})
			node := v.DefineClass("Node", 1, 64)
			scratch := v.DefineClass("Scratch", 0, 512)
			g := v.AddGlobal()
			err := v.RunThread("main", func(th *Thread) {
				var old heap.Ref
				th.Scope(func() {
					old = th.New(node)
					th.StoreGlobal(g, old)
				})
				v.Collect() // old is now a survivor
				// The heap edge is the only path once the scope is gone.
				th.Scope(func() { th.Store(old, 0, th.New(node)) })
				for i := 0; i < 4000; i++ {
					th.Scope(func() { th.New(scratch) })
				}
				v.Collect()
				got := th.Load(old, 0)
				if got.IsNull() {
					t.Fatal("survivor -> new edge lost")
				}
				if th.ClassOf(got) != "Node" {
					t.Fatalf("class = %q", th.ClassOf(got))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if st := v.Stats(); st.Collections < 3 {
				t.Fatalf("%d collections: the churn never triggered one between the store and the load", st.Collections)
			}
			if viol := v.Verify(); len(viol) != 0 {
				t.Fatalf("audit: %v", viol)
			}
		})
	}
}

// TestLazyBarriersActivateAtObserve: under LazyBarriers, the barrier cold
// path never runs while the controller is INACTIVE and arms itself when
// OBSERVE begins — after which pruning works exactly as with eager
// barriers.
func TestLazyBarriersActivateAtObserve(t *testing.T) {
	v := New(Options{
		HeapLimit:      256 << 10,
		EnableBarriers: true,
		LazyBarriers:   true,
		GCWorkers:      1,
		Policy:         core.DefaultPolicy{},
	})
	holder := v.DefineClass("Holder", 2, 0)
	payload := v.DefineClass("Payload", 0, 2048)
	scratch := v.DefineClass("Scratch", 0, 64)
	g := v.AddGlobal()
	err := v.RunThread("main", func(th *Thread) {
		// Phase 1: small working set, far below the 50% threshold. Loads
		// must never hit the barrier cold path.
		th.Scope(func() {
			h := th.New(holder)
			th.Store(h, 0, th.New(payload))
			th.StoreGlobal(g, h)
		})
		for i := 0; i < 50; i++ {
			th.Scope(func() {
				th.Load(th.LoadGlobal(g), 0)
				th.New(scratch)
			})
		}
		if hits := v.Stats().BarrierHits; hits != 0 {
			t.Errorf("barrier cold path ran %d times while INACTIVE", hits)
		}
		// Phase 2: leak until pruning engages. Walking a few links of the
		// chain loads references the collector has tagged, so the armed
		// barrier's cold path fires.
		for i := 0; i < 1500; i++ {
			th.Scope(func() {
				h := th.New(holder)
				th.Store(h, 0, th.New(payload))
				th.Store(h, 1, th.LoadGlobal(g))
				th.StoreGlobal(g, h)
				cur := th.LoadGlobal(g)
				for d := 0; d < 4 && !cur.IsNull(); d++ {
					cur = th.Load(cur, 1)
				}
				for j := 0; j < 4; j++ {
					th.New(scratch)
				}
			})
		}
	})
	if err != nil {
		t.Fatalf("lazy-barrier run died: %v", err)
	}
	if v.Stats().PrunedRefs == 0 {
		t.Fatal("pruning never engaged under lazy barriers")
	}
	if v.Stats().BarrierHits == 0 {
		t.Fatal("barriers never armed after OBSERVE")
	}
}
