package gc

import (
	"sync"
	"testing"
	"testing/quick"

	"leakpruning/internal/heap"
)

// TestStaleClosureSharedSubgraphCountedOnce: two candidates whose subgraphs
// overlap must attribute the shared objects to exactly one of them
// (claim-based accounting, §4.5) and the total must equal the stale bytes.
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

	var mu sync.Mutex
	total := uint64(0)
	res := th.collector(2).Collect(Plan{
		Mode:      ModeSelect,
		Candidate: func(src, tgt heap.ClassID, stale uint8) bool { return stale >= 2 },
		AccountStaleBytes: func(src, tgt heap.ClassID, bytes uint64) {
			mu.Lock()
			total += bytes
			mu.Unlock()
		},
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
