package gc

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
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

// site is one reference slot: the source object and the slot index.
type site struct {
	id   heap.ObjectID
	slot int
}

// TestConcurrentDriftDemotesPerEdge: a mutator that touches a deferred slot
// between Mark and Remark demotes that edge alone, and the cycle does not
// degrade. Three holders, each of its own class, hold a stale leaf with a
// tail. After Mark the test acts as the mutator: it overwrites holder 0's
// slot with a newborn, passing the old value as the SATB gray, and loads
// holder 1's slot as the read barrier's cold path does (untag, clear the
// target's stale counter). SELECT must then count and attribute holder 2's
// edge only; PRUNE must poison holder 2's slot only and keep the touched
// slots' current targets, with their subgraphs, through the sweep.
func TestConcurrentDriftDemotesPerEdge(t *testing.T) {
	for _, mode := range []Mode{ModeSelect, ModePrune} {
		t.Run(mode.String(), func(t *testing.T) {
			th := newTestHeap(t)
			leaf := th.class(t, "Leaf", 1, 64)
			tail := th.class(t, "Tail", 0, 32)
			var holders, leaves, tails []heap.Ref
			var holderCls []heap.ClassID
			for i := range 3 {
				cls := th.class(t, fmt.Sprintf("Holder%d", i), 1, 0)
				h, l, tl := th.alloc(t, cls), th.alloc(t, leaf), th.alloc(t, tail)
				th.link(h, 0, l)
				th.link(l, 0, tl)
				th.h.SetStale(th.h.Get(l), 3)
				holders, leaves, tails = append(holders, h), append(leaves, l), append(tails, tl)
				holderCls = append(holderCls, cls)
			}
			th.roots.refs = holders

			attributed := map[heap.ClassID]uint64{}
			var prunes []site
			plan := Plan{Mode: mode, TagRefs: true}
			if mode == ModeSelect {
				plan.Candidate = staleTarget
				plan.AccountStaleBytes = func(src, _ heap.ClassID, bytes uint64) { attributed[src] += bytes }
			} else {
				plan.ShouldPrune = staleTarget
				plan.OnPrune = func(id heap.ObjectID, slot int, _, _ heap.ClassID) { prunes = append(prunes, site{id, slot}) }
			}

			cy := th.collector(1).StartConcurrent(plan)
			cy.Mark()
			born := th.alloc(t, tail)
			h0, h1 := th.h.Get(holders[0]), th.h.Get(holders[1])
			gray := h0.Ref(0)
			h0.SetRef(0, born)
			if old := h1.Ref(0); !old.IsStaleTagged() || !h1.CompareAndSwapRef(0, old, old.Untagged()) {
				t.Fatalf("holder 1's deferred slot holds %v, want it stale-tagged", old)
			}
			th.h.ClearStale(th.h.Get(leaves[1]))
			cy.Remark([]heap.Ref{gray}, "")
			cy.Sweep()
			res := cy.Finish()

			if res.SnapshotDrift != 2 || res.Degraded {
				t.Fatalf("drift %d degraded %v (%s), want 2 and no degrade", res.SnapshotDrift, res.Degraded, res.DegradeCause)
			}
			if got := h0.Ref(0); got != born {
				t.Fatalf("holder 0's slot = %v, want the stored %v", got, born)
			}
			if got := h1.Ref(0); got.IsPoisoned() || got.ID() != leaves[1].ID() {
				t.Fatalf("holder 1's slot = %v, want unpoisoned %v", got, leaves[1])
			}
			for _, r := range []heap.Ref{born, leaves[0], leaves[1], tails[1]} {
				if !th.alive(r) {
					t.Fatalf("%v was swept: a touched slot's target, or the gray", r)
				}
			}
			slot2 := th.h.Get(holders[2]).Ref(0)
			if mode == ModeSelect {
				want := th.h.Get(leaves[2]).Size() + th.h.Get(tails[2]).Size()
				if res.Candidates != 1 || len(attributed) != 1 || attributed[holderCls[2]] != want || res.StaleBytes != want {
					t.Fatalf("candidates %d, attributed %v (%d bytes), want 1 and %d bytes to holder 2's class %d",
						res.Candidates, attributed, res.StaleBytes, want, holderCls[2])
				}
				if slot2.IsPoisoned() || !th.alive(tails[2]) {
					t.Fatal("SELECT poisoned or reclaimed an untouched candidate")
				}
				return
			}
			if want := []site{{holders[2].ID(), 0}}; res.PrunedRefs != 1 || !slices.Equal(prunes, want) {
				t.Fatalf("pruned %d refs, OnPrune saw %v, want 1 and %v", res.PrunedRefs, prunes, want)
			}
			if !slot2.IsPoisoned() || th.alive(leaves[2]) || th.alive(tails[2]) {
				t.Fatalf("holder 2's slot = %v, leaf alive %v: want it poisoned and its subgraph swept", slot2, th.alive(leaves[2]))
			}
		})
	}
}

// TestOnPruneIsSerial: Plan.OnPrune is called serially even when helpers
// trace the closure. An STW PRUNE collection at 4 workers over 512 roots
// (more than one root batch, so helpers launch) must report each poisoned
// slot exactly once to a hook that appends to an unlocked slice; under
// -race a call from a helper shows as a data race.
func TestOnPruneIsSerial(t *testing.T) {
	th := newTestHeap(t)
	holder := th.class(t, "Holder", 2, 0)
	leaf := th.class(t, "Leaf", 0, 16)
	link := th.class(t, "Link", 1, 16)
	for range 512 {
		h, l := th.alloc(t, holder), th.alloc(t, leaf)
		th.h.SetStale(th.h.Get(l), 3)
		th.link(h, 1, l)
		chain := heap.Null
		for range 8 {
			r := th.alloc(t, link)
			th.link(r, 0, chain)
			chain = r
		}
		th.link(h, 0, chain)
		th.roots.refs = append(th.roots.refs, h)
	}

	var got []site
	col := th.collector(4)
	res := col.Collect(Plan{Mode: ModePrune, TagRefs: true, ShouldPrune: staleTarget,
		OnPrune: func(id heap.ObjectID, slot int, _, _ heap.ClassID) { got = append(got, site{id, slot}) }})
	if col.scratch.launches == 0 {
		t.Fatal("no helper launched: the closure ran on one goroutine")
	}
	var want []site
	for _, r := range th.roots.refs {
		obj := th.h.Get(r)
		for slot := range obj.NumRefs() {
			if obj.Ref(slot).IsPoisoned() {
				want = append(want, site{r.ID(), slot})
			}
		}
	}
	slices.SortFunc(got, func(a, b site) int { return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.slot, b.slot)) })
	if len(want) != 512 || res.PrunedRefs != len(got) || !slices.Equal(got, want) {
		t.Fatalf("PrunedRefs %d, OnPrune saw %d slots, %d poisoned: want all three 512 and the same slots",
			res.PrunedRefs, len(got), len(want))
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
