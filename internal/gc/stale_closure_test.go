package gc

import (
	"fmt"
	"maps"
	"testing"
	"testing/quick"
	"time"

	"leakpruning/internal/heap"
)

// TestStaleClosureSharedSubgraphCountedOnce: two candidates whose subgraphs
// overlap must attribute the shared objects to exactly one of them
// (claim-based accounting) and the total must equal the stale bytes. The
// shared objects count for the first candidate that claims them, so the
// per-edge attribution is the same at every worker count.
func TestStaleClosureSharedSubgraphCountedOnce(t *testing.T) {
	th := newTestHeap(t)
	holder := th.class(t, "Holder", 1, 0)
	mid := th.class(t, "Mid", 1, 0)
	shared := th.class(t, "Shared", 0, 500)

	h1 := th.alloc(t, holder)
	h2 := th.alloc(t, holder)
	m1 := th.alloc(t, mid)
	m2 := th.alloc(t, mid)
	s := th.alloc(t, shared)
	th.link(h1, 0, m1)
	th.link(h2, 0, m2)
	th.link(m1, 0, s)
	th.link(m2, 0, s)
	th.h.SetStale(th.h.Get(m1), 3)
	th.h.SetStale(th.h.Get(m2), 3)
	th.roots.refs = []heap.Ref{h1, h2}

	total := uint64(0)
	res := th.collector(2).Collect(Plan{
		Mode:              ModeSelect,
		Candidate:         staleTarget,
		AccountStaleBytes: func(src, tgt heap.ClassID, bytes uint64) { total += bytes },
	})
	if res.Candidates != 2 {
		t.Fatalf("candidates = %d", res.Candidates)
	}
	want := th.h.Get(m1).Size() + th.h.Get(m2).Size() + th.h.Get(s).Size()
	if total != want {
		t.Fatalf("attributed %d bytes, want %d (shared object double-counted?)", total, want)
	}
	if res.StaleBytes != want {
		t.Fatalf("StaleBytes = %d, want %d", res.StaleBytes, want)
	}

	// 256 holders, each with a stale MidA and a stale MidB child (two edge
	// types) that share one 41-node chain. Both candidates of a pair come
	// from one holder, MidA's slot first, so whichever worker scans the
	// holder, MidA's candidate precedes MidB's and claims the chain. More
	// than 128 roots start a helper in the in-use closure at 2 workers and
	// more.
	perEdge := func(workers int) (map[[2]heap.ClassID]uint64, Result) {
		th := newTestHeap(t)
		holder := th.class(t, "Holder", 2, 0)
		mids := []heap.ClassID{th.class(t, "MidA", 1, 8), th.class(t, "MidB", 1, 8)}
		link := th.class(t, "Link", 1, 24)
		for range 256 {
			h := th.alloc(t, holder)
			chain := heap.Null
			for range 41 {
				r := th.alloc(t, link)
				th.link(r, 0, chain)
				chain = r
			}
			for slot, cls := range mids {
				m := th.alloc(t, cls)
				th.link(m, 0, chain)
				th.link(h, slot, m)
				th.h.SetStale(th.h.Get(m), 3)
			}
			th.roots.refs = append(th.roots.refs, h)
		}
		got := map[[2]heap.ClassID]uint64{}
		res := th.collector(workers).Collect(Plan{
			Mode:              ModeSelect,
			Candidate:         staleTarget,
			AccountStaleBytes: func(src, tgt heap.ClassID, bytes uint64) { got[[2]heap.ClassID{src, tgt}] += bytes },
		})
		if res.Candidates != 512 {
			t.Fatalf("workers=%d: %d candidates, want 512", workers, res.Candidates)
		}
		return got, res
	}
	want1, res1 := perEdge(1)
	if len(want1) != 2 {
		t.Fatalf("attributed to %d edge types, want 2: %v", len(want1), want1)
	}
	for _, workers := range []int{2, 4} {
		for run := range 30 {
			if got, res := perEdge(workers); !maps.Equal(got, want1) || res.StaleBytes != res1.StaleBytes {
				t.Fatalf("workers=%d run %d: attributed %v (%d bytes), 1 worker %v (%d bytes)",
					workers, run, got, res.StaleBytes, want1, res1.StaleBytes)
			}
		}
	}
}

// TestStaleClosureCandidateReachableFromInUse: a candidate whose target was
// already claimed by the in-use closure contributes zero bytes (the c4 case
// of the paper's Figure 5).
func TestStaleClosureCandidateReachableFromInUse(t *testing.T) {
	th := newTestHeap(t)
	holder := th.class(t, "Holder", 1, 0)
	keeper := th.class(t, "Keeper", 1, 0)
	leaf := th.class(t, "Leaf", 0, 100)

	h1 := th.alloc(t, holder)
	k1 := th.alloc(t, keeper)
	l1 := th.alloc(t, leaf)
	th.link(h1, 0, l1)
	th.link(k1, 0, l1)
	th.h.SetStale(th.h.Get(l1), 5)
	th.roots.refs = []heap.Ref{h1, k1}

	var got []uint64
	th.collector(1).Collect(Plan{
		Mode: ModeSelect,
		// Only Holder -> Leaf is a candidate; Keeper -> Leaf keeps the leaf
		// in use.
		Candidate: func(src, tgt heap.ClassID, stale uint8) bool {
			return src == holder && stale >= 2
		},
		AccountStaleBytes: func(src, tgt heap.ClassID, bytes uint64) {
			got = append(got, bytes)
		},
	})
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("in-use-claimed candidate attributed %v bytes, want [0]", got)
	}
}

// TestTraceRetentionQuick: for random object graphs, a collection retains
// exactly the objects reachable from the roots — computed independently
// with a plain BFS over the same graph.
func TestTraceRetentionQuick(t *testing.T) {
	type edge struct{ From, To uint8 }
	prop := func(edges []edge, rootPick []uint8) bool {
		const n = 24
		th := newTestHeap(t)
		cls := th.class(t, "N", 8, 0)
		refs := make([]heap.Ref, n)
		for i := range refs {
			refs[i] = th.alloc(t, cls)
		}
		adj := make([][]int, n)
		slotUsed := make([]int, n)
		for _, e := range edges {
			f, to := int(e.From)%n, int(e.To)%n
			if slotUsed[f] >= 8 {
				continue
			}
			th.link(refs[f], slotUsed[f], refs[to])
			slotUsed[f]++
			adj[f] = append(adj[f], to)
		}
		rootIdx := map[int]bool{}
		for _, r := range rootPick {
			i := int(r) % n
			rootIdx[i] = true
			th.roots.refs = append(th.roots.refs, refs[i])
		}
		// Independent reachability.
		want := map[int]bool{}
		var stack []int
		for i := range rootIdx {
			stack = append(stack, i)
			want[i] = true
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !want[w] {
					want[w] = true
					stack = append(stack, w)
				}
			}
		}
		th.collector(4).Collect(Plan{Mode: ModeNormal})
		for i := range refs {
			if th.alive(refs[i]) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPruneSoundnessQuick: for random graphs with random staleness and a
// random pruned edge type, after a PRUNE collection every object reachable
// from the roots through non-poisoned references is still alive.
func TestPruneSoundnessQuick(t *testing.T) {
	type edge struct{ From, To uint8 }
	prop := func(edges []edge, rootPick []uint8, stales []uint8, pick uint8) bool {
		const n = 20
		th := newTestHeap(t)
		classes := []heap.ClassID{
			th.class(t, "C1", 8, 0),
			th.class(t, "C2", 8, 0),
			th.class(t, "C3", 8, 0),
		}
		refs := make([]heap.Ref, n)
		for i := range refs {
			refs[i] = th.alloc(t, classes[i%3])
		}
		for i, s := range stales {
			if i >= n {
				break
			}
			th.h.SetStale(th.h.Get(refs[i]), s%8)
		}
		slotUsed := make([]int, n)
		for _, e := range edges {
			f, to := int(e.From)%n, int(e.To)%n
			if slotUsed[f] >= 8 {
				continue
			}
			th.link(refs[f], slotUsed[f], refs[to])
			slotUsed[f]++
		}
		for _, r := range rootPick {
			th.roots.refs = append(th.roots.refs, refs[int(r)%n])
		}
		prunedSrc := classes[int(pick)%3]
		prunedTgt := classes[int(pick/3)%3]
		th.collector(4).Collect(Plan{
			Mode: ModePrune,
			ShouldPrune: func(src, tgt heap.ClassID, stale uint8) bool {
				return src == prunedSrc && tgt == prunedTgt && stale >= 2
			},
		})
		// Recompute reachability over the post-prune graph: follow only
		// non-poisoned references from the roots; everything reached must
		// be alive.
		seen := map[heap.ObjectID]bool{}
		var stack []heap.Ref
		for _, r := range th.roots.refs {
			stack = append(stack, r)
		}
		for len(stack) > 0 {
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[r.ID()] {
				continue
			}
			seen[r.ID()] = true
			obj, ok := th.h.Lookup(r.ID())
			if !ok {
				return false // reachable object was freed: unsound
			}
			for s := 0; s < obj.NumRefs(); s++ {
				child := obj.Ref(s)
				if child.IsNull() || child.IsPoisoned() {
					continue
				}
				stack = append(stack, child.Untagged())
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStaleClosure measures the SELECT stale closure on a heap shaped
// like eclipsediff's SELECT cycles under leak pruning: about 4.7 k
// candidates, each the head of a 640-byte stale chain of eight 80-byte
// objects allocated together, so neighbouring candidates share mark-bitmap
// words. More than 128 roots start a helper in the in-use closure from 2
// workers up. stale-ns/obj is the stale closure's time per object it
// marks.
//
//	go test -run='^$' -bench=BenchmarkStaleClosure ./internal/gc
func BenchmarkStaleClosure(b *testing.B) {
	const candidates, chainLen = 4700, 8
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			reg := heap.NewRegistry()
			holder := reg.Define("Holder", 1, 0)
			node := reg.Define("Node", 1, 56)
			h := heap.New(reg, 1<<30)
			roots := &rootSet{}
			alloc := func(cls heap.ClassID) heap.Ref {
				r, err := h.Allocate(cls)
				if err != nil {
					b.Fatal(err)
				}
				return r
			}
			for range candidates {
				hr := alloc(holder)
				roots.refs = append(roots.refs, hr)
				prev := hr
				for range chainLen {
					n := alloc(node)
					h.Get(prev).SetRef(0, n)
					h.SetStale(h.Get(n), 3)
					prev = n
				}
			}
			wantBytes := candidates * chainLen * heap.ObjectSize(1, 56)
			col := NewCollector(h, roots, workers)
			plan := Plan{Mode: ModeSelect, Candidate: staleTarget}
			var stale time.Duration
			b.ResetTimer()
			for range b.N {
				res := col.Collect(plan)
				if res.Candidates != candidates || res.StaleBytes != wantBytes {
					b.Fatalf("%d candidates, %d stale bytes; want %d, %d", res.Candidates, res.StaleBytes, candidates, wantBytes)
				}
				stale += res.StaleDuration
			}
			b.StopTimer()
			b.ReportMetric(float64(stale.Nanoseconds())/float64(b.N*candidates*chainLen), "stale-ns/obj")
		})
	}
}
