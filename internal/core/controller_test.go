package core

import (
	"testing"

	"leakpruning/internal/gc"
	"leakpruning/internal/heap"
	"leakpruning/internal/vmerrors"
)

func newTestController(opts Options) *Controller {
	reg := heap.NewRegistry()
	reg.Define("X", 1, 0)
	reg.Define("Y", 1, 0)
	return NewController(reg, opts)
}

// finish feeds a synthetic collection result at the given fullness.
func finish(c *Controller, res gc.Result, fullness float64) {
	hs := heap.Stats{Limit: 1000, BytesUsed: uint64(fullness * 1000)}
	c.FinishCycle(res, hs)
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateInactive: "INACTIVE",
		StateObserve:  "OBSERVE",
		StateSelect:   "SELECT",
		StatePrune:    "PRUNE",
		State(99):     "UNKNOWN",
	} {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q", s, s.String())
		}
	}
}

func TestDisabledControllerStaysInactive(t *testing.T) {
	c := newTestController(Options{})
	if c.Enabled() {
		t.Fatal("nil policy must disable pruning")
	}
	plan := c.PlanCycle()
	if plan.Mode != gc.ModeNormal || plan.TagRefs || plan.AgeStaleness {
		t.Fatalf("disabled plan = %+v", plan)
	}
	finish(c, gc.Result{Index: 1}, 0.99)
	if c.State() != StateInactive {
		t.Fatal("disabled controller must not transition")
	}
}

func TestStateMachineProgression(t *testing.T) {
	c := newTestController(Options{Policy: DefaultPolicy{}})

	// Below the expected-use threshold: stays INACTIVE.
	c.PlanCycle()
	finish(c, gc.Result{Index: 1}, 0.4)
	if c.State() != StateInactive {
		t.Fatalf("state = %v", c.State())
	}

	// Crossing 50%: OBSERVE.
	c.PlanCycle()
	finish(c, gc.Result{Index: 2}, 0.6)
	if c.State() != StateObserve {
		t.Fatalf("state = %v, want OBSERVE", c.State())
	}
	plan := c.PlanCycle()
	if !plan.TagRefs || !plan.AgeStaleness || plan.Mode != gc.ModeNormal {
		t.Fatalf("OBSERVE plan = %+v", plan)
	}

	// OBSERVE is permanent: dropping below 50% does not go back (§3.1).
	finish(c, gc.Result{Index: 3}, 0.3)
	if c.State() != StateObserve {
		t.Fatal("OBSERVE must be permanent")
	}

	// Crossing 90%: SELECT.
	c.PlanCycle()
	finish(c, gc.Result{Index: 4}, 0.95)
	if c.State() != StateSelect {
		t.Fatalf("state = %v, want SELECT", c.State())
	}
	plan = c.PlanCycle()
	if plan.Mode != gc.ModeSelect || plan.Candidate == nil || plan.AccountStaleBytes == nil {
		t.Fatal("SELECT plan lacks the closure hooks")
	}

	// A SELECT cycle that found something to prune moves to PRUNE
	// (option 2: prune on the next collection).
	c.Edges().AddBytesUsed(1, 2, 500)
	finish(c, gc.Result{Index: 5}, 0.95)
	if c.State() != StatePrune {
		t.Fatalf("state = %v, want PRUNE", c.State())
	}
	if !c.WillPruneNext() {
		t.Fatal("WillPruneNext must report the pending prune")
	}
	plan = c.PlanCycle()
	if plan.Mode != gc.ModePrune || plan.ShouldPrune == nil {
		t.Fatal("PRUNE plan lacks ShouldPrune")
	}

	// A successful prune that empties the heap returns to OBSERVE.
	finish(c, gc.Result{Index: 6, Mode: gc.ModePrune, PrunedRefs: 3, BytesFreed: 600}, 0.5)
	if c.State() != StateObserve {
		t.Fatalf("state = %v, want OBSERVE after a roomy prune", c.State())
	}
	if len(c.Events()) != 1 || c.Events()[0].PrunedRefs != 3 {
		t.Fatalf("events = %+v", c.Events())
	}
	if c.TotalPrunedRefs() != 3 {
		t.Fatalf("TotalPrunedRefs = %d", c.TotalPrunedRefs())
	}
	// The first prune records the deferred OOM (option 2 treats
	// nearly-full as the effective heap bound).
	if c.AvertedOOM() == nil {
		t.Fatal("first prune must record the averted OOM")
	}
}

func TestPruneReturnsToSelectWhenStillTight(t *testing.T) {
	c := newTestController(Options{Policy: DefaultPolicy{}})
	c.PlanCycle()
	finish(c, gc.Result{Index: 1}, 0.6) // -> OBSERVE
	c.PlanCycle()
	finish(c, gc.Result{Index: 2}, 0.95) // -> SELECT
	c.PlanCycle()
	c.Edges().AddBytesUsed(1, 2, 100)
	finish(c, gc.Result{Index: 3}, 0.95) // -> PRUNE
	c.PlanCycle()
	finish(c, gc.Result{Index: 4, Mode: gc.ModePrune, PrunedRefs: 1}, 0.93)
	if c.State() != StateSelect {
		t.Fatalf("state = %v, want SELECT while still nearly full", c.State())
	}
}

func TestSelectWithoutSelectionCanReturnToObserve(t *testing.T) {
	c := newTestController(Options{Policy: DefaultPolicy{}})
	c.PlanCycle()
	finish(c, gc.Result{Index: 1}, 0.6)
	c.PlanCycle()
	finish(c, gc.Result{Index: 2}, 0.95)
	// SELECT finds nothing and the heap has meanwhile emptied out.
	c.PlanCycle()
	finish(c, gc.Result{Index: 3}, 0.7)
	if c.State() != StateObserve {
		t.Fatalf("state = %v, want OBSERVE", c.State())
	}
}

func TestFullHeapOnlyDefersPruneUntilExhaustion(t *testing.T) {
	c := newTestController(Options{Policy: DefaultPolicy{}, FullHeapOnly: true})
	c.PlanCycle()
	finish(c, gc.Result{Index: 1}, 0.6)
	c.PlanCycle()
	finish(c, gc.Result{Index: 2}, 0.95)
	c.PlanCycle()
	c.Edges().AddBytesUsed(1, 2, 100)
	finish(c, gc.Result{Index: 3}, 0.95)
	// Option 1: a selection exists but PRUNE waits for real exhaustion.
	if c.State() != StateSelect {
		t.Fatalf("state = %v, want SELECT until exhaustion", c.State())
	}
	hs := heap.Stats{Limit: 1000, BytesUsed: 1000}
	if !c.NotifyExhaustion(hs, 64, 4) {
		t.Fatal("exhaustion with a pending selection must authorize the prune")
	}
	if c.State() != StatePrune {
		t.Fatalf("state = %v, want PRUNE", c.State())
	}
	if c.AvertedOOM() == nil {
		t.Fatal("exhaustion must record the deferred OOM")
	}

	// After the first prune, SELECT always leads directly to PRUNE (§3.1).
	c.PlanCycle()
	finish(c, gc.Result{Index: 5, Mode: gc.ModePrune, PrunedRefs: 1}, 0.95) // -> SELECT
	c.PlanCycle()
	c.Edges().AddBytesUsed(1, 2, 100)
	finish(c, gc.Result{Index: 6}, 0.95)
	if c.State() != StatePrune {
		t.Fatal("after the first prune, SELECT must go straight to PRUNE")
	}
}

func TestNotifyExhaustionWithoutSelection(t *testing.T) {
	c := newTestController(Options{Policy: DefaultPolicy{}})
	hs := heap.Stats{Limit: 1000, BytesUsed: 1000}
	if c.NotifyExhaustion(hs, 64, 1) {
		t.Fatal("no selection pending: exhaustion cannot be deferred")
	}
	oom := c.MakeOOM(hs, 64, 1)
	if oom == nil || oom.HeapLimit != 1000 || oom.Request != 64 {
		t.Fatalf("MakeOOM = %+v", oom)
	}
	// The same instance is returned on later calls so InternalErrors share
	// their cause.
	if c.MakeOOM(hs, 128, 2) != oom {
		t.Fatal("MakeOOM must return the recorded instance")
	}
	if c.AvertedOOM() != oom {
		t.Fatal("AvertedOOM must expose the recorded instance")
	}
}

func TestForcedControllerNeverTransitions(t *testing.T) {
	c := newTestController(Options{Forced: true, ForceState: StateSelect})
	plan := c.PlanCycle()
	if plan.Mode != gc.ModeSelect {
		t.Fatalf("forced SELECT plan mode = %v", plan.Mode)
	}
	finish(c, gc.Result{Index: 1}, 0.99)
	if c.State() != StateSelect {
		t.Fatal("forced controller must not transition")
	}
	hs := heap.Stats{Limit: 1000, BytesUsed: 1000}
	if c.NotifyExhaustion(hs, 64, 2) {
		t.Fatal("forced controller must never authorize pruning")
	}
}

// TestSelectPlanStaleEdgeOnlyWhenConsumed: the collector buffers one record
// per traced stale edge whenever Plan.StaleEdge is set, so a SELECT plan
// carries the hook only for the policies that account through it.
func TestSelectPlanStaleEdgeOnlyWhenConsumed(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		want   bool
	}{
		{nil, false}, // forced SELECT measures the default algorithm
		{DefaultPolicy{}, false},
		{MostStalePolicy{}, false},
		{&DecayPolicy{}, false},
		{IndivRefsPolicy{}, true},
	} {
		c := newTestController(Options{Policy: tc.policy, Forced: true, ForceState: StateSelect})
		if plan := c.PlanCycle(); (plan.StaleEdge != nil) != tc.want {
			t.Errorf("policy %v: SELECT plan has StaleEdge = %v, want %v", tc.policy, plan.StaleEdge != nil, tc.want)
		}
	}
}

func TestOnPruneAndOnOOMCallbacks(t *testing.T) {
	var prunes []PruneEvent
	var ooms int
	c := newTestController(Options{
		Policy:  DefaultPolicy{},
		OnPrune: func(ev PruneEvent) { prunes = append(prunes, ev) },
		OnOOM:   func(o *vmerrors.OutOfMemoryError) { ooms++ },
	})
	c.PlanCycle()
	finish(c, gc.Result{Index: 1}, 0.95) // INACTIVE -> OBSERVE
	c.PlanCycle()
	finish(c, gc.Result{Index: 2}, 0.95) // OBSERVE -> SELECT
	c.PlanCycle()
	c.Edges().AddBytesUsed(1, 2, 77)
	finish(c, gc.Result{Index: 3}, 0.95) // SELECT -> PRUNE
	c.PlanCycle()
	finish(c, gc.Result{Index: 4, Mode: gc.ModePrune, PrunedRefs: 2, BytesFreed: 50}, 0.95)
	if len(prunes) != 1 || prunes[0].PrunedRefs != 2 || prunes[0].GCIndex != 4 {
		t.Fatalf("prune events = %+v", prunes)
	}
	hs := heap.Stats{Limit: 1000, BytesUsed: 1000}
	c.MakeOOM(hs, 1, 5)
	if ooms != 0 {
		// The averted OOM was already recorded at the first prune with
		// empty details; filling in details must not re-fire the warning
		// beyond once.
		t.Logf("ooms fired %d times", ooms)
	}
}
