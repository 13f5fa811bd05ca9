package gc

import (
	"sync"
	"testing"

	"leakpruning/internal/heap"
)

// TestParallelCollectionStress is the -race stress test for the
// work-stealing tracer and the parallel sweep scan: a large heap is built
// by concurrent mutators through TLAB contexts, then collected with 8
// workers in each mode (normal, select, prune) while the fundamental
// byte-accounting invariant — allocated == live + freed — is asserted
// after every cycle.
func TestParallelCollectionStress(t *testing.T) {
	reg := heap.NewRegistry()
	node := reg.Define("Node", 4, 48)
	h := heap.New(reg, 1<<30)
	roots := &rootSet{}

	const goroutines = 8
	const perG = 8000 // 64k objects total

	heads := make([]heap.Ref, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := h.NewAllocContext()
			defer h.ReleaseContext(&ctx)
			var prev heap.Ref
			for i := 0; i < perG; i++ {
				r, err := h.AllocateCtx(&ctx, node)
				if err != nil {
					t.Error(err)
					return
				}
				if !prev.IsNull() {
					// Chain plus a shortcut edge two back, giving the tracer
					// shared structure to claim-race over.
					h.Get(r).SetRef(0, prev)
					if i%3 == 0 {
						h.Get(r).SetRef(1, h.Get(prev).Ref(0))
					}
				}
				prev = r
			}
			heads[g] = prev
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Root only the even goroutines' chains; odd chains are garbage.
	for g := 0; g < goroutines; g += 2 {
		roots.refs = append(roots.refs, heads[g])
	}

	col := NewCollector(h, roots, 8)
	checkInvariant := func(stage string, res Result) {
		t.Helper()
		st := h.Stats()
		if st.BytesAlloc-st.BytesFreed != st.BytesUsed {
			t.Fatalf("%s: byte invariant broken: %+v", stage, st)
		}
		if st.ObjectsAlloc-st.ObjectsFreed != st.ObjectsUsed {
			t.Fatalf("%s: object invariant broken: %+v", stage, st)
		}
		if res.BytesLive != st.BytesUsed {
			t.Fatalf("%s: BytesLive %d != BytesUsed %d", stage, res.BytesLive, st.BytesUsed)
		}
		if res.ObjectsLive != st.ObjectsUsed {
			t.Fatalf("%s: ObjectsLive %d != ObjectsUsed %d", stage, res.ObjectsLive, st.ObjectsUsed)
		}
	}

	res := col.Collect(Plan{Mode: ModeNormal, TagRefs: true, AgeStaleness: true})
	if res.ObjectsFreed != goroutines/2*perG {
		t.Fatalf("normal collection freed %d, want %d", res.ObjectsFreed, goroutines/2*perG)
	}
	checkInvariant("normal", res)

	// Make the surviving chains stale and run SELECT: candidates are
	// deferred, attributed by the stale closure, and still retained.
	h.ForEach(func(id heap.ObjectID, obj *heap.Object) { h.SetStale(obj, 3) })
	var accMu sync.Mutex
	var staleBytes uint64
	res = col.Collect(Plan{
		Mode:      ModeSelect,
		TagRefs:   true,
		Candidate: func(src, tgt heap.ClassID, stale uint8) bool { return stale >= 2 },
		AccountStaleBytes: func(src, tgt heap.ClassID, bytes uint64) {
			accMu.Lock()
			staleBytes += bytes
			accMu.Unlock()
		},
	})
	if res.ObjectsFreed != 0 {
		t.Fatalf("SELECT reclaimed %d objects", res.ObjectsFreed)
	}
	if res.Candidates == 0 || res.StaleBytes == 0 || staleBytes != res.StaleBytes {
		t.Fatalf("SELECT: candidates %d stale %d (accounted %d)", res.Candidates, res.StaleBytes, staleBytes)
	}
	checkInvariant("select", res)

	// PRUNE: poison every stale edge out of the chain heads' class and
	// verify the poisoned subgraphs are reclaimed with accounting intact.
	before := h.Stats()
	res = col.Collect(Plan{
		Mode:        ModePrune,
		TagRefs:     true,
		ShouldPrune: func(src, tgt heap.ClassID, stale uint8) bool { return stale >= 2 },
	})
	if res.PrunedRefs == 0 || res.ObjectsFreed == 0 {
		t.Fatalf("PRUNE made no progress: pruned %d freed %d", res.PrunedRefs, res.ObjectsFreed)
	}
	checkInvariant("prune", res)
	after := h.Stats()
	if after.ObjectsFreed-before.ObjectsFreed != res.ObjectsFreed {
		t.Fatalf("heap freed %d, collector reports %d",
			after.ObjectsFreed-before.ObjectsFreed, res.ObjectsFreed)
	}
}
