package core

import (
	"testing"
	"testing/quick"

	"leakpruning/internal/edgetable"
	"leakpruning/internal/gc"
	"leakpruning/internal/heap"
)

func testEnv() Env {
	reg := heap.NewRegistry()
	reg.Define("S1", 1, 0)
	reg.Define("T1", 1, 0)
	reg.Define("S2", 1, 0)
	reg.Define("T2", 1, 0)
	return Env{Edges: edgetable.New(64), Classes: reg}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"default", "most-stale", "indiv-refs"} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := PolicyByName("bogus"); err == nil {
		t.Fatal("unknown policy must error")
	}
}

func TestDefaultCandidateGuard(t *testing.T) {
	env := testEnv()
	c := DefaultPolicy{}.Begin(env)
	// Unknown edge type: maxStaleUse 0, so the guard is staleness >= 2.
	if c.Candidate(1, 2, 1) {
		t.Fatal("staleness 1 must not be a candidate")
	}
	if !c.Candidate(1, 2, 2) {
		t.Fatal("staleness 2 with maxStaleUse 0 must be a candidate")
	}
	// After the program uses this edge type at staleness 3, the bar is 5.
	env.Edges.RecordUse(1, 2, 3)
	if c.Candidate(1, 2, 4) {
		t.Fatal("staleness below maxStaleUse+2 must be protected")
	}
	if !c.Candidate(1, 2, 5) {
		t.Fatal("staleness maxStaleUse+2 must be a candidate")
	}
	// A saturated maxStaleUse protects the edge type permanently: the
	// 3-bit counter cannot reach 7+2 (the paper's JbbMod Object[]->Order
	// behaviour at maxStaleUse 5 is the near-miss version of this).
	env.Edges.RecordUse(1, 2, 7)
	if c.Candidate(1, 2, heap.MaxStale) {
		t.Fatal("saturated maxStaleUse must protect the edge type")
	}
}

func TestDefaultSelectsLargestDataStructure(t *testing.T) {
	env := testEnv()
	c := DefaultPolicy{}.Begin(env)
	c.AccountStaleBytes(1, 2, 1000)
	c.AccountStaleBytes(3, 4, 4000)
	c.AccountStaleBytes(1, 2, 500)
	sel, ok := c.Finish(gc.Result{})
	if !ok {
		t.Fatal("no selection")
	}
	es := sel.(*EdgeSelection)
	if es.Src != 3 || es.Tgt != 4 || es.Bytes != 4000 {
		t.Fatalf("selected %+v", es)
	}
	if !sel.ShouldPrune(3, 4, 2) {
		t.Fatal("selection must prune its own edge type at staleness 2")
	}
	if sel.ShouldPrune(1, 2, 7) {
		t.Fatal("selection must not prune other edge types")
	}
	if sel.ShouldPrune(3, 4, 1) {
		t.Fatal("selection must respect the staleness guard")
	}
}

func TestDefaultSelectionTracksMaxStaleUseAtPruneTime(t *testing.T) {
	env := testEnv()
	c := DefaultPolicy{}.Begin(env)
	c.AccountStaleBytes(1, 2, 100)
	sel, _ := c.Finish(gc.Result{})
	if !sel.ShouldPrune(1, 2, 3) {
		t.Fatal("prunable before the use")
	}
	// A use observed between SELECT and PRUNE raises the bar (§4.3 prunes
	// against the entry's *current* maxStaleUse).
	env.Edges.RecordUse(1, 2, 4)
	if sel.ShouldPrune(1, 2, 3) {
		t.Fatal("prune threshold must follow maxStaleUse")
	}
	if !sel.ShouldPrune(1, 2, 6) {
		t.Fatal("staleness 6 >= 4+2 must still prune")
	}
}

func TestDefaultNoSelectionWhenNothingStale(t *testing.T) {
	env := testEnv()
	c := DefaultPolicy{}.Begin(env)
	if _, ok := c.Finish(gc.Result{}); ok {
		t.Fatal("empty edge table must select nothing")
	}
}

func TestMostStalePolicy(t *testing.T) {
	env := testEnv()
	c := MostStalePolicy{}.Begin(env)
	if c.Candidate(1, 2, 7) {
		t.Fatal("most-stale elides the candidate queue entirely")
	}
	if _, ok := c.Finish(gc.Result{MaxStale: 1}); ok {
		t.Fatal("nothing stale enough: no selection")
	}
	sel, ok := c.Finish(gc.Result{MaxStale: 5})
	if !ok {
		t.Fatal("no selection at max staleness 5")
	}
	if !sel.ShouldPrune(1, 2, 5) || !sel.ShouldPrune(3, 4, 6) {
		t.Fatal("most-stale prunes every edge type at the level")
	}
	if sel.ShouldPrune(1, 2, 4) {
		t.Fatal("below the level must survive")
	}
}

func TestIndivRefsAccountsTargetSizesOnly(t *testing.T) {
	env := testEnv()
	cycle := IndivRefsPolicy{}.Begin(env)
	if cycle.Candidate(1, 2, 7) {
		t.Fatal("indiv-refs elides the candidate queue")
	}
	c, ok := cycle.(StaleEdgeObserver)
	if !ok {
		t.Fatal("indiv-refs accounts bytes per stale edge: its cycle must observe them")
	}
	// Two stale references to big individual targets on edge (1,2); one
	// bigger aggregate structure would have been on (3,4), but without the
	// stale closure only per-target sizes count.
	c.StaleEdge(1, 2, 3, 5000)
	c.StaleEdge(1, 2, 3, 5000)
	c.StaleEdge(3, 4, 3, 600)
	// Not stale enough relative to maxStaleUse: ignored.
	env.Edges.RecordUse(3, 4, 4)
	c.StaleEdge(3, 4, 5, 100000)
	sel, ok := cycle.Finish(gc.Result{})
	if !ok {
		t.Fatal("no selection")
	}
	es := sel.(*EdgeSelection)
	if es.Src != 1 || es.Tgt != 2 || es.Bytes != 10000 {
		t.Fatalf("selected %+v", es)
	}
}

// TestDefaultSelectionQuick: for arbitrary byte attributions, Finish always
// returns the edge with the maximum accumulated bytes, and afterwards the
// table is fully reset.
func TestDefaultSelectionQuick(t *testing.T) {
	prop := func(contribs []uint16) bool {
		env := testEnv()
		c := DefaultPolicy{}.Begin(env)
		totals := map[edgetable.Key]uint64{}
		for i, b := range contribs {
			key := edgetable.Key{Src: heap.ClassID(i%3 + 1), Tgt: heap.ClassID(i%2 + 1)}
			c.AccountStaleBytes(key.Src, key.Tgt, uint64(b))
			totals[key] += uint64(b)
		}
		var best uint64
		for _, v := range totals {
			if v > best {
				best = v
			}
		}
		sel, ok := c.Finish(gc.Result{})
		if best == 0 {
			return !ok
		}
		if !ok {
			return false
		}
		es := sel.(*EdgeSelection)
		reset := true
		env.Edges.ForEach(func(e *edgetable.Entry) {
			if e.BytesUsed() != 0 {
				reset = false
			}
		})
		return es.Bytes == best && reset
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
