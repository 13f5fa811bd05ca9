package vm

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"leakpruning/internal/core"
	"leakpruning/internal/heap"
	"leakpruning/internal/vmerrors"
)

// TestSafepointStress hammers the world protocol from 8 mutator goroutines
// mixing Load/Store/New through a shared global while full-heap collections
// — including SELECT and PRUNE cycles driven by the pruning policy, plus
// explicitly forced ones — stop the world underneath them. Run with -race
// this is the main evidence that the safepoint fast path (two atomic stores
// on the thread's own state word and nothing else locked — the op=region
// row of BenchmarkMutatorOps; no shared lock, plain per-thread counters)
// still establishes happens-before between mutators and the collector.
func TestSafepointStress(t *testing.T) {
	v := New(Options{
		HeapLimit:      2 << 20,
		EnableBarriers: true,
		GCWorkers:      2,
		Policy:         core.DefaultPolicy{},
	})
	node := v.DefineClass("Node", 2, 1024)
	scratch := v.DefineClass("Scratch", 0, 64)
	shared := v.AddGlobal()

	const workers = 8
	const iters = 400
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = v.RunThread(fmt.Sprintf("stress-%d", w), func(th *Thread) {
				for i := 0; i < iters; i++ {
					th.Scope(func() {
						n := th.New(node)
						th.Store(n, 0, th.LoadGlobal(shared))
						th.StoreGlobal(shared, n)
						cur := th.LoadGlobal(shared)
						for d := 0; d < 6 && !cur.IsNull(); d++ {
							next := th.Load(cur, 0)
							th.Store(cur, 1, next)
							cur = next
						}
						th.New(scratch)
						if i%100 == w {
							// Forced full-heap collection from inside a
							// mutator loop: the thread is between ops
							// (at a safepoint), so this must not
							// deadlock against its own critical region.
							v.Collect()
						}
						if i%64 == 63 {
							th.StoreGlobal(shared, heap.Null)
						}
					})
				}
			})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err == nil {
			continue
		}
		// Poison traps and OOMs are legitimate outcomes of a leak
		// workload under an aggressive policy; protocol bugs surface
		// as deadlocks, race reports, or audit violations instead.
		var ie *vmerrors.InternalError
		if !errors.As(err, &ie) && !vmerrors.IsOOM(err) {
			t.Fatalf("worker %d: unexpected error: %v", w, err)
		}
	}
	if v.Stats().Collections == 0 {
		t.Fatal("expected collections under churn")
	}
	if violations := v.Verify(); len(violations) != 0 {
		t.Fatalf("heap invariants violated after stress: %v", violations)
	}
}

// equivalenceProbe walks the leaked chain from global g on a fresh thread
// — following the slot-1 next pointer and touching each node's slot-0
// payload — until the chain ends or a pruned edge traps. It reports how far
// the walk got and how it ended: "end@N" for a clean walk of N hops, or
// "trap@N:src->tgt" naming the hop and the trap's edge classes.
func equivalenceProbe(v *VM, g int) string {
	hops := 0
	err := v.RunThread("probe", func(th *Thread) {
		cur := th.LoadGlobal(g)
		for !cur.IsNull() {
			th.Scope(func() {
				th.Load(cur, 0)
				cur = th.Load(cur, 1)
			})
			hops++
		}
	})
	if err != nil {
		var ie *vmerrors.InternalError
		if errors.As(err, &ie) {
			return fmt.Sprintf("trap@%d:%s->%s", hops, ie.SourceClass, ie.TargetClass)
		}
		return fmt.Sprintf("err@%d:%v", hops, err)
	}
	return fmt.Sprintf("end@%d", hops)
}

// equivalenceRun executes one deterministic single-threaded leak workload
// and returns every observable two runs must agree on: collection counts,
// pruned totals, per-event prune log, and the exact sequence of trap
// outcomes from probing the pruned structure afterwards.
func equivalenceRun(t *testing.T) string {
	t.Helper()
	v := New(Options{
		HeapLimit:      256 << 10,
		EnableBarriers: true,
		GCWorkers:      1,
		Policy:         core.DefaultPolicy{},
	})
	holder := v.DefineClass("Holder", 2, 0)
	payload := v.DefineClass("Payload", 0, 2048)
	scratch := v.DefineClass("Scratch", 0, 64)
	g := v.AddGlobal()
	err := v.RunThread("leaker", func(th *Thread) {
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
		t.Fatalf("leak workload died: %v", err)
	}

	st := v.Stats()
	var events string
	for _, ev := range v.PruneEvents() {
		events += fmt.Sprintf("[gc%d %s refs=%d bytes=%d]",
			ev.GCIndex, ev.Selection, ev.PrunedRefs, ev.BytesFreed)
	}
	var probes string
	for i := 0; i < 3; i++ {
		probes += fmt.Sprintf("%d=%q;", i, equivalenceProbe(v, g))
	}
	// The probes must actually exercise the trap machinery, or the
	// "identical trap sequences" comparison is vacuous.
	traps := v.Stats().PoisonTraps
	if traps == 0 {
		t.Fatalf("probes never hit a pruned edge (probes=%s)", probes)
	}
	return fmt.Sprintf("collections=%d pruned=%d traps=%d events=%s probes=%s",
		st.Collections, st.PrunedRefs, traps, events, probes)
}

// TestSafepointDeterminism runs the same deterministic workload twice and
// requires identical GC counts, pruned bytes/refs, and trap sequences: the
// safepoint protocol must be invisible to program semantics.
func TestSafepointDeterminism(t *testing.T) {
	first := equivalenceRun(t)
	if second := equivalenceRun(t); second != first {
		t.Fatalf("safepoint run not deterministic:\nfirst:  %s\nsecond: %s", first, second)
	}
}

// TestExitFoldsCounters: Stats totals must survive thread exit (per-thread
// counter shards are folded into the VM's retired totals by Exit).
func TestExitFoldsCounters(t *testing.T) {
	v := New(Options{HeapLimit: 1 << 20, EnableBarriers: true, GCWorkers: 1})
	cls := v.DefineClass("C", 1, 0)
	for round := 0; round < 3; round++ {
		if err := v.RunThread("counted", func(th *Thread) {
			r := th.New(cls)
			for i := 0; i < 10; i++ {
				th.Load(r, 0)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := v.Stats()
	if st.Loads != 30 {
		t.Fatalf("Loads = %d, want 30", st.Loads)
	}
	if st.Allocations != 3 {
		t.Fatalf("Allocations = %d, want 3", st.Allocations)
	}
}
