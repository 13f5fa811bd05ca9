package vm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"leakpruning/internal/core"
	"leakpruning/internal/faultinject"
	"leakpruning/internal/gc"
	"leakpruning/internal/heap"
	"leakpruning/internal/vmerrors"
)

// markCycle is what one collection looked like to the equivalence check.
// The per-cycle live-set fingerprint comes from liveSetHash (livehash.go),
// called from OnGC, i.e. inside the cycle's final stop-the-world pause.
type markCycle struct {
	mode     string
	live     uint64 // liveSetHash after the cycle
	cands    int
	pruned   int
	pauses   int
	degraded bool
}

// markEquivalenceRun executes the deterministic single-threaded leak
// workload (the TestSafepointDeterminism program) under the given mark mode
// and returns a fingerprint every mode must agree on: per-cycle live-set
// hashes, SELECT candidate counts, PRUNE decisions, the prune event log,
// and the post-mortem probe walks. Pause structure and degradation are
// reported separately via cycles, since those are exactly what the modes
// are allowed to differ on.
func markEquivalenceRun(t *testing.T, mode MarkMode, inj *faultinject.Injector) (string, []markCycle, Stats) {
	t.Helper()
	var cycles []markCycle
	var v *VM
	v = New(Options{
		HeapLimit:      256 << 10,
		EnableBarriers: true,
		GCWorkers:      1,
		Policy:         core.DefaultPolicy{},
		MarkMode:       mode,
		FaultInjector:  inj,
		OnGC: func(ev Event) {
			cycles = append(cycles, markCycle{
				mode:     ev.Result.Mode.String(),
				live:     liveSetHash(v.heap),
				cands:    ev.Result.Candidates,
				pruned:   ev.Result.PrunedRefs,
				pauses:   len(ev.Pauses),
				degraded: ev.Result.Degraded,
			})
		},
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
		t.Fatalf("mark mode %v: leak workload died: %v", mode, err)
	}

	fp := ""
	for i, c := range cycles {
		fp += fmt.Sprintf("[%d %s live=%x cands=%d pruned=%d]", i, c.mode, c.live, c.cands, c.pruned)
	}
	st := v.Stats()
	for _, ev := range v.PruneEvents() {
		fp += fmt.Sprintf("{gc%d %s refs=%d bytes=%d}", ev.GCIndex, ev.Selection, ev.PrunedRefs, ev.BytesFreed)
	}
	for i := 0; i < 3; i++ {
		fp += fmt.Sprintf("%d=%q;", i, equivalenceProbe(v, g))
	}
	if v.Stats().PoisonTraps == 0 {
		t.Fatalf("mark mode %v: probes never hit a pruned edge", mode)
	}
	fp += fmt.Sprintf("collections=%d pruned=%d", st.Collections, st.PrunedRefs)
	if viol := v.Verify(); len(viol) != 0 {
		t.Fatalf("mark mode %v: heap invariants violated: %v", mode, viol)
	}
	return fp, cycles, st
}

// TestMarkModeEquivalence is the concurrent path's correctness oracle: the
// same deterministic leak workload, run fully-STW and mostly-concurrent,
// must produce byte-identical live sets after every collection, identical
// SELECT candidate counts, identical PRUNE poison decisions, and identical
// trap sequences when the pruned structure is probed — the mark mode must
// be invisible to program semantics. A concurrent re-run checks the mode
// against itself for determinism, and the pause structure is asserted on
// the side: every concurrent-mode cycle — normal, SELECT, and PRUNE —
// gets three short pauses (SELECT/PRUNE run their candidate selection and
// deferred poisoning against the frozen staleness snapshot).
func TestMarkModeEquivalence(t *testing.T) {
	stw, stwCycles, _ := markEquivalenceRun(t, MarkSTW, nil)
	con, conCycles, _ := markEquivalenceRun(t, MarkConcurrent, nil)
	if stw != con {
		t.Fatalf("mark modes diverged:\nstw:        %s\nconcurrent: %s", stw, con)
	}
	if again, _, _ := markEquivalenceRun(t, MarkConcurrent, nil); again != con {
		t.Fatalf("concurrent run not deterministic:\nfirst:  %s\nsecond: %s", con, again)
	}
	for i, c := range stwCycles {
		if c.pauses != 1 {
			t.Fatalf("stw cycle %d: %d pauses, want 1", i, c.pauses)
		}
	}
	var normals, selects, prunes int
	for i, c := range conCycles {
		switch c.mode {
		case gc.ModeNormal.String():
			normals++
		case gc.ModeSelect.String():
			selects++
		case gc.ModePrune.String():
			prunes++
		}
		if c.pauses != 3 {
			t.Fatalf("concurrent cycle %d (%s): %d pauses, want 3", i, c.mode, c.pauses)
		}
		if c.degraded {
			t.Fatalf("concurrent cycle %d degraded without any fault armed", i)
		}
	}
	if normals == 0 || selects == 0 || prunes == 0 {
		t.Fatalf("workload drove %d normal / %d select / %d prune concurrent cycles; every mode must be exercised",
			normals, selects, prunes)
	}
}

// TestConcurrentDegradeEquivalence arms the SATB barrier-drop fault on
// every draw, so every concurrent cycle — normal, SELECT, and PRUNE alike —
// detects a lost buffer at the remark pause and degrades to a fresh
// fully-STW closure. The degraded runs must still reproduce the STW
// oracle's fingerprint exactly — the degradation path is a sound fallback,
// not a different collector — and for SELECT/PRUNE that covers discarding
// the deferred candidate/poisoning work and re-deriving it serially under
// the same frozen staleness cut.
func TestConcurrentDegradeEquivalence(t *testing.T) {
	stw, _, _ := markEquivalenceRun(t, MarkSTW, nil)
	inj := faultinject.New(1)
	inj.Arm(faultinject.SATBBarrierDrop, 1.0)
	con, cycles, st := markEquivalenceRun(t, MarkConcurrent, inj)
	if stw != con {
		t.Fatalf("degraded concurrent run diverged from the STW oracle:\nstw:      %s\ndegraded: %s", stw, con)
	}
	var degraded int
	for i, c := range cycles {
		if !c.degraded {
			t.Fatalf("cycle %d (%s) did not degrade with the drop fault armed on every draw", i, c.mode)
		}
		degraded++
	}
	if degraded == 0 || st.DegradedTraces != uint64(degraded) {
		t.Fatalf("DegradedTraces = %d, want %d (one per concurrent cycle)", st.DegradedTraces, degraded)
	}
}

// TestConcurrentSnapshotDriftDegrade arms the injected unresolvable
// snapshot drift on every draw: every concurrent SELECT and PRUNE remark
// must then clear the mark bitmap and re-run the serial STW closure, while
// ModeNormal cycles (which have no snapshot to drift) complete
// concurrently. The fingerprint must still match the STW oracle — degrade
// re-derives selection and poisoning from the same frozen cut.
func TestConcurrentSnapshotDriftDegrade(t *testing.T) {
	stw, _, _ := markEquivalenceRun(t, MarkSTW, nil)
	inj := faultinject.New(7)
	inj.Arm(faultinject.SelectSnapshotDrift, 1.0)
	con, cycles, _ := markEquivalenceRun(t, MarkConcurrent, inj)
	if stw != con {
		t.Fatalf("drift-degraded run diverged from the STW oracle:\nstw:   %s\ndrift: %s", stw, con)
	}
	var degraded int
	for i, c := range cycles {
		isNormal := c.mode == gc.ModeNormal.String()
		if isNormal && c.degraded {
			t.Fatalf("cycle %d (normal) degraded; SelectSnapshotDrift must only hit SELECT/PRUNE remarks", i)
		}
		if !isNormal {
			if !c.degraded {
				t.Fatalf("cycle %d (%s) did not degrade with drift armed on every draw", i, c.mode)
			}
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("no SELECT/PRUNE cycles degraded; the drift path is untested")
	}
}

// TestConcurrentMarkStress is the multithreaded half of the soundness
// argument: 8 mutator goroutines store into a shared structure while
// concurrent cycles mark underneath them, so the SATB deletion barrier and the
// start pause's free-slot marks actually carry load (single-threaded runs
// never store during a mark — the mutator is busy driving the cycle).
// AuditEveryGC checks the post-sweep heap inside every cycle's final pause;
// under -race this is the main evidence that SwapRef-based barrier logging and
// the buffer handoff at the remark pause are properly synchronized. It runs at
// GOMAXPROCS 4, so mutators allocate on their own Ps while the cycles mark and
// sweep. The one-worker row is a tenant's setup: that worker marks alone, with
// plain stores, while the mutators allocate into slots of the bitmap words it
// claims in; a birth writes no bit, so none is lost.
func TestConcurrentMarkStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, workers := range []int{2, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { concurrentMarkStress(t, workers, nil, 0) })
	}
	// Dropped SATB entries degrade some remarks: the serial re-run clears
	// the mark bitmap while the mutators hold allocation runs, and they keep
	// allocating through the sweep that follows.
	t.Run("workers=2,satb-drop", func(t *testing.T) {
		inj := faultinject.New(5)
		inj.Arm(faultinject.SATBBarrierDrop, 0.3)
		concurrentMarkStress(t, 2, inj, 0)
	})
	// The same over a 40 000-object chain, which keeps each Mark busy long
	// enough for the mutators to allocate through it: without it a plain
	// run's Mark ends before any mutator wakes, so no degraded remark finds
	// an allocation run half used, and only the race detector's slowdown
	// tests the re-mark of its unused slots. The mutators log thousands of
	// SATB entries per Mark, hence the low drop rate.
	t.Run("workers=2,satb-drop,long-mark", func(t *testing.T) {
		inj := faultinject.New(5)
		inj.Arm(faultinject.SATBBarrierDrop, 0.002)
		concurrentMarkStress(t, 2, inj, 40_000)
	})
}

// concurrentMarkStress runs the stress with a chain of retain objects held
// by a global beside the mutators' shared structure.
func concurrentMarkStress(t *testing.T, gcWorkers int, inj *faultinject.Injector, retain int) {
	v := New(Options{
		HeapLimit:      2<<20 + uint64(retain)*64,
		EnableBarriers: true,
		GCWorkers:      gcWorkers,
		Policy:         core.DefaultPolicy{},
		MarkMode:       MarkConcurrent,
		AuditEveryGC:   true,
		FaultInjector:  inj,
	})
	node := v.DefineClass("Node", 2, 1024)
	scratch := v.DefineClass("Scratch", 0, 64)
	shared := v.AddGlobal()
	if retain > 0 {
		link := v.DefineClass("Link", 1, 0)
		chain := v.AddGlobal()
		if err := v.RunThread("retain", func(th *Thread) {
			for range retain {
				th.Scope(func() {
					n := th.New(link)
					th.Store(n, 0, th.LoadGlobal(chain))
					th.StoreGlobal(chain, n)
				})
			}
		}); err != nil {
			t.Fatal(err)
		}
	}

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
		var ie *vmerrors.InternalError
		if !errors.As(err, &ie) && !vmerrors.IsOOM(err) {
			t.Fatalf("worker %d: unexpected error: %v", w, err)
		}
	}
	st := v.Stats()
	if st.Collections == 0 {
		t.Fatal("expected collections under churn")
	}
	t.Logf("%d collections, %d degraded", st.Collections, st.DegradedTraces)
	if inj != nil && (st.DegradedTraces == 0 || st.DegradedTraces == st.Collections) {
		t.Fatalf("%d of %d collections degraded; the row needs some of each", st.DegradedTraces, st.Collections)
	}
	if st.AuditViolations != 0 {
		t.Fatalf("per-cycle audits found %d violations; the first failing audit: %s", st.AuditViolations, auditSummary(v.FirstFailedAudit()))
	}
	if violations := v.Verify(); len(violations) != 0 {
		t.Fatalf("heap invariants violated after stress: %v", violations)
	}
}

// TestMarkModeValidation: concurrent marking's configuration prerequisites
// are enforced at construction.
func TestMarkModeValidation(t *testing.T) {
	cases := []struct {
		name   string
		opts   Options
		option string
	}{
		{"unknown", Options{MarkMode: MarkMode(42)}, "MarkMode"},
		{"offload", Options{MarkMode: MarkConcurrent, OffloadDisk: 1 << 20, EnableBarriers: true},
			"MarkMode+OffloadDisk"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected New to panic")
				}
				var oe *OptionError
				if err, ok := r.(error); !ok || !errors.As(err, &oe) || oe.Option != tc.option {
					t.Fatalf("unexpected panic: %v (want option %s)", r, tc.option)
				}
			}()
			New(tc.opts)
		})
	}
}

// TestClearDuringConcurrentSweep: a use's clear must survive a concurrent
// cycle's sweep. Mutators keep loading stale-tagged references to old
// objects while concurrent cycles mark and sweep beside them; after each
// cycle, every object whose use went through the read barrier's cold path
// since that cycle started must read stale ≤ 1 — the clear counts as a use
// before the cycle's one clock step at most. An aging pass that loads a
// counter and stores it back incremented could overwrite a clear landing
// in between; birth and clear are single stores of the clock's position,
// and no cycle writes a live object. Run at GOMAXPROCS 4, so mutators run
// beside the sweep on their own Ps, and under -race by make race. Mutators
// leave one quarter of the leaves alone for four cycles at a time, so some
// uses land on objects at stale >= 2 however many loads fit between two
// cycles.
func TestClearDuringConcurrentSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cycles := 40
	if testing.Short() {
		cycles = 12
	}
	const leaves, garbage, mutators = 2048, 6000, 3
	v := New(Options{
		HeapLimit:      64 << 20,
		EnableBarriers: true,
		GCWorkers:      2,
		MarkMode:       MarkConcurrent,
		Forced:         true,
		ForceState:     core.StateObserve, // every cycle tags references and ages
	})
	dirClass := v.DefineClass("Dir", leaves, 0)
	leafClass := v.DefineClass("Leaf", 0, 32)
	scratch := v.DefineClass("Scratch", 0, 16)
	g := v.AddGlobal()
	var leafRefs [leaves]heap.Ref
	if err := v.RunThread("setup", func(th *Thread) {
		th.Scope(func() {
			dir := th.New(dirClass)
			th.StoreGlobal(g, dir)
			for i := range leafRefs {
				leafRefs[i] = th.New(leafClass)
				th.Store(dir, i, leafRefs[i])
			}
		})
	}); err != nil {
		t.Fatal(err)
	}

	// seq is the number of the cycle most recently started; used[i] is the
	// seq a mutator read before a load of slot i that took the cold path.
	var seq atomic.Int64
	var used [leaves]atomic.Int64
	var stop atomic.Bool
	var oldUses atomic.Int64 // cold-path uses of an object at stale >= 2
	var wg sync.WaitGroup
	errs := make([]error, mutators)
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[m] = v.RunThread(fmt.Sprintf("user-%d", m), func(th *Thread) {
				rnd := uint64(m)*0x9e3779b97f4a7c15 | 1
				for !stop.Load() {
					rnd ^= rnd << 13
					rnd ^= rnd >> 7
					rnd ^= rnd << 17
					i := int(rnd % leaves)
					s := seq.Load()
					if i%4 == int(s/4%4) {
						continue // this quarter ages
					}
					stale := v.heap.Stale(v.heap.Get(leafRefs[i]))
					hits := th.barrierHits
					th.Load(th.LoadGlobal(g), i)
					if th.barrierHits != hits {
						used[i].Store(s)
						if stale >= 2 {
							oldUses.Add(1)
						}
					}
					if rnd%64 == 0 {
						runtime.Gosched()
					}
				}
			})
		}()
	}

	var checked int
	err := v.RunThread("collector", func(th *Thread) {
		for k := int64(1); k <= int64(cycles); k++ {
			th.Scope(func() {
				for i := 0; i < garbage; i++ { // dead by the sweep, and the cycle ages
					th.New(scratch)
				}
			})
			seq.Store(k)
			v.Collect()
			for i := range used {
				if used[i].Load() < k {
					continue
				}
				checked++
				if s := v.heap.Stale(v.heap.Get(leafRefs[i])); s > 1 {
					t.Errorf("cycle %d: leaf %d was used since the cycle started but reads stale %d", k, i, s)
				}
			}
		}
	})
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for m, err := range errs {
		if err != nil {
			t.Fatalf("mutator %d: %v", m, err)
		}
	}
	if checked == 0 || oldUses.Load() == 0 {
		t.Fatalf("vacuous: %d uses checked, %d of an object at stale >= 2", checked, oldUses.Load())
	}
}
