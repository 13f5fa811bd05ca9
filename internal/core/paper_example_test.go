package core

import (
	"strings"
	"testing"

	"leakpruning/internal/edgetable"
	"leakpruning/internal/gc"
	"leakpruning/internal/heap"
)

// TestPaperFigureExample reproduces the worked example of Figures 3–5
// exactly: the heap
//
//	roots -> a1, e1
//	a1 -> b1, b2, b3, b4
//	b1 -> c1 -> d1, d2
//	b2 -> c2 -> d3, d4
//	b3 -> c3 -> d5, d6
//	b4 -> c4 -> d7, d8
//	e1 -> c4
//
// with stale counters c1=2, c2=1, c3=3, c4=3 and maxStaleUse(E->C)=2.
//
// SELECT must defer exactly the candidates b1->c1, b3->c3, and b4->c4
// (b2->c2 is not stale enough; e1->c4 needs staleness >= 4 because of the
// edge type's maxStaleUse), attribute to B->C only the bytes of the six
// gray objects (c1,d1,d2,c3,d5,d6 — c4's subtree is claimed by the in-use
// closure via e1), and select B->C. PRUNE must poison all three candidate
// references and reclaim exactly the gray objects, leaving c4, d7, d8 alive
// through e1 (Figure 4).
type exampleRoots struct{ refs []heap.Ref }

func (r *exampleRoots) VisitRoots(fn func(heap.Ref)) {
	for _, ref := range r.refs {
		fn(ref)
	}
}

func TestPaperFigureExample(t *testing.T) {
	reg := heap.NewRegistry()
	clsA := reg.Define("A", 4, 0)
	clsB := reg.Define("B", 1, 0)
	clsC := reg.Define("C", 2, 0)
	clsD := reg.Define("D", 0, 0)
	clsE := reg.Define("E", 1, 0)

	h := heap.New(reg, 1<<20)
	alloc := func(cls heap.ClassID) heap.Ref {
		r, err := h.Allocate(cls)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	link := func(src heap.Ref, slot int, tgt heap.Ref) { h.Get(src).SetRef(slot, tgt) }

	a1 := alloc(clsA)
	e1 := alloc(clsE)
	b := make([]heap.Ref, 5)
	c := make([]heap.Ref, 5)
	d := make([]heap.Ref, 9)
	for i := 1; i <= 4; i++ {
		b[i] = alloc(clsB)
		c[i] = alloc(clsC)
		link(a1, i-1, b[i])
		link(b[i], 0, c[i])
	}
	for i := 1; i <= 8; i++ {
		d[i] = alloc(clsD)
	}
	link(c[1], 0, d[1])
	link(c[1], 1, d[2])
	link(c[2], 0, d[3])
	link(c[2], 1, d[4])
	link(c[3], 0, d[5])
	link(c[3], 1, d[6])
	link(c[4], 0, d[7])
	link(c[4], 1, d[8])
	link(e1, 0, c[4])

	// Stale counters from Figure 5.
	h.SetStale(h.Get(c[1]), 2)
	h.SetStale(h.Get(c[2]), 1)
	h.SetStale(h.Get(c[3]), 3)
	h.SetStale(h.Get(c[4]), 3)

	edges := edgetable.New(64)
	// The program previously used an E -> C reference at staleness 2.
	edges.RecordUse(clsE, clsC, 2)

	roots := &exampleRoots{refs: []heap.Ref{a1, e1}}
	col := gc.NewCollector(h, roots, 1)
	env := Env{Edges: edges, Classes: reg}

	// --- SELECT ---
	cycle := DefaultPolicy{}.Begin(env)
	plan := gc.Plan{
		Mode:              gc.ModeSelect,
		TagRefs:           true,
		Candidate:         cycle.Candidate,
		AccountStaleBytes: cycle.AccountStaleBytes,
	}
	res := col.Collect(plan)

	if res.Candidates != 3 {
		t.Fatalf("SELECT deferred %d candidates, want 3 (b1->c1, b3->c3, b4->c4)", res.Candidates)
	}
	if res.ObjectsFreed != 0 {
		t.Fatal("SELECT must not reclaim anything")
	}

	entry, ok := edges.Get(clsB, clsC)
	if !ok {
		t.Fatal("no B->C edge entry after the stale closure")
	}
	// The gray objects: c1, d1, d2 and c3, d5, d6. The subtree at c4 is
	// processed by the in-use closure (reachable via e1 -> c4), so the
	// b4 -> c4 candidate contributes nothing.
	wantBytes := 2 * (h.Get(c[1]).Size() + h.Get(d[1]).Size() + h.Get(d[2]).Size())
	if entry.BytesUsed() != wantBytes {
		t.Fatalf("bytesUsed(B->C) = %d, want %d", entry.BytesUsed(), wantBytes)
	}

	sel, ok := cycle.Finish(res)
	if !ok {
		t.Fatal("SELECT chose nothing")
	}
	if !strings.HasPrefix(sel.String(), "B -> C") {
		t.Fatalf("selected %q, want the B -> C edge type", sel.String())
	}
	// Finish resets every bytesUsed (§4.2).
	edges.ForEach(func(e *edgetable.Entry) {
		if e.BytesUsed() != 0 {
			t.Fatalf("bytesUsed not reset for %v", e.Key())
		}
	})

	// --- PRUNE ---
	pres := col.Collect(gc.Plan{
		Mode:        gc.ModePrune,
		TagRefs:     true,
		ShouldPrune: sel.ShouldPrune,
	})
	if pres.PrunedRefs != 3 {
		t.Fatalf("PRUNE poisoned %d refs, want 3", pres.PrunedRefs)
	}

	// Figure 4: b1->c1*, b3->c3*, b4->c4* poisoned; the gray objects are
	// reclaimed; c4, d7, d8 survive through e1.
	for _, bi := range []int{1, 3, 4} {
		slot := h.Get(b[bi]).Ref(0)
		if !slot.IsPoisoned() {
			t.Fatalf("b%d -> c%d not poisoned", bi, bi)
		}
	}
	if h.Get(b[2]).Ref(0).IsPoisoned() {
		t.Fatal("b2 -> c2 must not be poisoned")
	}
	if h.Get(e1).Ref(0).IsPoisoned() {
		t.Fatal("e1 -> c4 must not be poisoned")
	}

	dead := []heap.Ref{c[1], d[1], d[2], c[3], d[5], d[6]}
	for _, r := range dead {
		if _, ok := h.Lookup(r.ID()); ok {
			t.Fatalf("%v should have been reclaimed", r)
		}
	}
	live := []heap.Ref{a1, e1, b[1], b[2], b[3], b[4], c[2], d[3], d[4], c[4], d[7], d[8]}
	for _, r := range live {
		if _, ok := h.Lookup(r.ID()); !ok {
			t.Fatalf("%v should have survived", r)
		}
	}
	if got := h.Stats().ObjectsUsed; got != uint64(len(live)) {
		t.Fatalf("live objects = %d, want %d", got, len(live))
	}
}
