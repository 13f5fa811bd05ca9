package gc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/heap"
)

// faultHeap builds a deterministic single-threaded heap: identical calls
// produce identical object IDs and reference graphs, so two heaps built by
// it can be compared slot-for-slot after collecting one of them under
// injected faults. Layout: chains of length chainLen with back-edges, the
// even-indexed chains rooted, the odd ones garbage.
func faultHeap(t *testing.T, chains, chainLen int) (*heap.Heap, *rootSet) {
	t.Helper()
	reg := heap.NewRegistry()
	node := reg.Define("Node", 4, 48)
	h := heap.New(reg, 1<<30)
	roots := &rootSet{}
	for c := 0; c < chains; c++ {
		var prev heap.Ref
		for i := 0; i < chainLen; i++ {
			r, err := h.Allocate(node)
			if err != nil {
				t.Fatal(err)
			}
			if !prev.IsNull() {
				h.Get(r).SetRef(0, prev)
				if i%3 == 0 {
					h.Get(r).SetRef(1, h.Get(prev).Ref(0))
				}
			}
			prev = r
		}
		if c%2 == 0 {
			roots.refs = append(roots.refs, prev)
		}
	}
	return h, roots
}

// liveSnapshot captures every live object byte-for-byte as far as the
// collector can influence it: identity, class, size, staleness, and the raw
// reference words (including stale/poison tag bits).
func liveSnapshot(h *heap.Heap) map[heap.ObjectID]string {
	snap := make(map[heap.ObjectID]string)
	h.ForEach(func(id heap.ObjectID, obj *heap.Object) {
		sig := fmt.Sprintf("c%d s%d st%d", obj.Class(), obj.Size(), h.Stale(obj))
		for slot, n := 0, obj.NumRefs(); slot < n; slot++ {
			sig += fmt.Sprintf(" r%d=%x", slot, obj.Ref(slot))
		}
		snap[id] = sig
	})
	return snap
}

func assertSameLiveSet(t *testing.T, got, want map[heap.ObjectID]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("live set size %d, want %d", len(got), len(want))
	}
	for id, sig := range want {
		if got[id] != sig {
			t.Fatalf("object %d diverged:\n got  %q\n want %q", id, got[id], sig)
		}
	}
}

func assertCleanAudit(t *testing.T, h *heap.Heap, stage string) {
	t.Helper()
	if v := h.Audit(); len(v) != 0 {
		t.Fatalf("%s: audit violations: %v", stage, v)
	}
}

// TestWorkerPanicSerialFallbackEquivalence is the acceptance criterion made
// a test: a collection whose parallel tracer is killed by an injected
// worker panic must recover, re-run serially, and leave a live set
// byte-identical to a fault-free collection of the same heap.
func TestWorkerPanicSerialFallbackEquivalence(t *testing.T) {
	const chains, chainLen = 8, 500
	hA, rootsA := faultHeap(t, chains, chainLen)
	hB, rootsB := faultHeap(t, chains, chainLen)

	inj := faultinject.New(7)
	inj.Arm(faultinject.TraceWorkerPanic, 1.0)
	inj.Limit(faultinject.TraceWorkerPanic, 1)

	colA := NewCollector(hA, rootsA, 8)
	colA.SetFaultInjector(inj)
	colB := NewCollector(hB, rootsB, 1)

	resA := colA.Collect(Plan{Mode: ModeNormal, TagRefs: true, AgeStaleness: true})
	resB := colB.Collect(Plan{Mode: ModeNormal, TagRefs: true, AgeStaleness: true})

	if !resA.Degraded || resA.DegradeCause != "worker-panic" {
		t.Fatalf("collection not degraded by injected panic: %+v", resA)
	}
	if resB.Degraded {
		t.Fatalf("fault-free collection reported degraded: %+v", resB)
	}
	if colA.DegradedTraces() != 1 || colA.RecoveredPanics() != 1 {
		t.Fatalf("degraded=%d recovered=%d, want 1/1",
			colA.DegradedTraces(), colA.RecoveredPanics())
	}
	if colA.LastTracePanic() == "" {
		t.Fatal("recovered panic message was not kept")
	}
	if resA.ObjectsFreed != resB.ObjectsFreed || resA.BytesLive != resB.BytesLive {
		t.Fatalf("degraded run freed %d/%d live, fault-free %d/%d",
			resA.ObjectsFreed, resA.BytesLive, resB.ObjectsFreed, resB.BytesLive)
	}
	assertSameLiveSet(t, liveSnapshot(hA), liveSnapshot(hB))
	assertCleanAudit(t, hA, "degraded")
	assertCleanAudit(t, hB, "fault-free")
}

// TestWorkerPanicDuringPruneEquivalence: a worker panic in the middle of a
// prune closure degrades the cycle, and the serial re-run's poison count and
// final live set match a fault-free prune exactly.
func TestWorkerPanicDuringPruneEquivalence(t *testing.T) {
	// Chains of nodes, each node hanging a stale leaf off ref 2: the tracer
	// walks every live node and prunes its leaf edge, so the injected panic
	// (p=1% per scan, ~1600 scans) fires mid-prune with edges already
	// deferred, which the re-run must find again.
	build := func() (*heap.Heap, *rootSet, heap.ClassID) {
		reg := heap.NewRegistry()
		node := reg.Define("Node", 4, 48)
		leaf := reg.Define("Leaf", 0, 16)
		h := heap.New(reg, 1<<30)
		roots := &rootSet{}
		for c := 0; c < 8; c++ {
			var prev heap.Ref
			for i := 0; i < 400; i++ {
				r, err := h.Allocate(node)
				if err != nil {
					t.Fatal(err)
				}
				l, err := h.Allocate(leaf)
				if err != nil {
					t.Fatal(err)
				}
				h.SetStale(h.Get(l), 3)
				h.Get(r).SetRef(2, l)
				if !prev.IsNull() {
					h.Get(r).SetRef(0, prev)
				}
				prev = r
			}
			if c%2 == 0 {
				roots.refs = append(roots.refs, prev)
			}
		}
		return h, roots, leaf
	}
	hA, rootsA, leafA := build()
	hB, rootsB, _ := build()

	inj := faultinject.New(11)
	inj.Arm(faultinject.TraceWorkerPanic, 0.01)
	inj.Limit(faultinject.TraceWorkerPanic, 1)

	colA := NewCollector(hA, rootsA, 8)
	colA.SetFaultInjector(inj)
	colB := NewCollector(hB, rootsB, 1)

	plan := Plan{
		Mode:    ModePrune,
		TagRefs: true,
		ShouldPrune: func(src, tgt heap.ClassID, stale uint8) bool {
			return tgt == leafA && stale >= 2
		},
	}
	resA := colA.Collect(plan)
	resB := colB.Collect(plan)

	if inj.Fires(faultinject.TraceWorkerPanic) != 1 {
		t.Fatalf("panic fired %d times, want 1", inj.Fires(faultinject.TraceWorkerPanic))
	}
	if !resA.Degraded {
		t.Fatal("collection not degraded by injected panic")
	}
	if resA.PrunedRefs != resB.PrunedRefs {
		t.Fatalf("degraded prune poisoned %d refs, fault-free %d",
			resA.PrunedRefs, resB.PrunedRefs)
	}
	if resA.ObjectsFreed != resB.ObjectsFreed {
		t.Fatalf("degraded prune freed %d, fault-free %d",
			resA.ObjectsFreed, resB.ObjectsFreed)
	}
	assertSameLiveSet(t, liveSnapshot(hA), liveSnapshot(hB))
	assertCleanAudit(t, hA, "degraded prune")
}

// TestWatchdogTripFallback drives the watchdog downgrade path with the
// injected (deterministic) trip rather than wall-clock timing.
func TestWatchdogTripFallback(t *testing.T) {
	const chains, chainLen = 8, 300
	hA, rootsA := faultHeap(t, chains, chainLen)
	hB, rootsB := faultHeap(t, chains, chainLen)

	inj := faultinject.New(3)
	inj.Arm(faultinject.TraceWatchdogTrip, 1.0)
	inj.Limit(faultinject.TraceWatchdogTrip, 1)

	colA := NewCollector(hA, rootsA, 8)
	colA.SetFaultInjector(inj)
	colB := NewCollector(hB, rootsB, 1)

	resA := colA.Collect(Plan{Mode: ModeNormal, TagRefs: true})
	resB := colB.Collect(Plan{Mode: ModeNormal, TagRefs: true})

	if !resA.Degraded || resA.DegradeCause != "watchdog" {
		t.Fatalf("collection not degraded by injected watchdog trip: %+v", resA)
	}
	if colA.WatchdogAborts() != 1 || colA.RecoveredPanics() != 0 {
		t.Fatalf("watchdog=%d recovered=%d, want 1/0",
			colA.WatchdogAborts(), colA.RecoveredPanics())
	}
	if resA.ObjectsFreed != resB.ObjectsFreed {
		t.Fatalf("degraded run freed %d, fault-free %d", resA.ObjectsFreed, resB.ObjectsFreed)
	}
	assertSameLiveSet(t, liveSnapshot(hA), liveSnapshot(hB))
	assertCleanAudit(t, hA, "watchdog fallback")
}

// TestRealWatchdogTimer exercises the wall-clock watchdog (time.AfterFunc)
// path. Whether the timer beats the closure is timing-dependent, so the
// test asserts only what must hold either way: the collection completes and
// the live set matches a fault-free serial run.
func TestRealWatchdogTimer(t *testing.T) {
	const chains, chainLen = 8, 300
	hA, rootsA := faultHeap(t, chains, chainLen)
	hB, rootsB := faultHeap(t, chains, chainLen)

	colA := NewCollector(hA, rootsA, 8)
	colA.SetWatchdog(time.Nanosecond)
	colB := NewCollector(hB, rootsB, 1)

	resA := colA.Collect(Plan{Mode: ModeNormal, TagRefs: true})
	resB := colB.Collect(Plan{Mode: ModeNormal, TagRefs: true})
	if resA.Degraded && resA.DegradeCause != "watchdog" {
		t.Fatalf("unexpected degrade cause %q", resA.DegradeCause)
	}
	if resA.ObjectsFreed != resB.ObjectsFreed {
		t.Fatalf("freed %d, want %d", resA.ObjectsFreed, resB.ObjectsFreed)
	}
	assertSameLiveSet(t, liveSnapshot(hA), liveSnapshot(hB))
	assertCleanAudit(t, hA, "real watchdog")
}

// TestParallelCollectionStressWithInjectedPanics is the stress test's
// injected-fault variant (run it under -race): concurrent mutators build a
// 64k-object heap, then repeated 8-worker collections run with random
// worker panics armed. Every collection must complete — normally or via the
// serial fallback — with exact accounting and a clean heap audit, and the
// first collection must free exactly the known garbage count (the live-set
// equivalence, expressed without deterministic IDs).
func TestParallelCollectionStressWithInjectedPanics(t *testing.T) {
	reg := heap.NewRegistry()
	node := reg.Define("Node", 4, 48)
	h := heap.New(reg, 1<<30)
	roots := &rootSet{}

	const goroutines = 8
	const perG = 8000

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
	for g := 0; g < goroutines; g += 2 {
		roots.refs = append(roots.refs, heads[g])
	}

	inj := faultinject.New(42)
	inj.Arm(faultinject.TraceWorkerPanic, 0.001)
	col := NewCollector(h, roots, 8)
	col.SetFaultInjector(inj)

	check := func(stage string, res Result) {
		t.Helper()
		st := h.Stats()
		if st.BytesAlloc-st.BytesFreed != st.BytesUsed {
			t.Fatalf("%s: byte invariant broken: %+v", stage, st)
		}
		if res.BytesLive != st.BytesUsed {
			t.Fatalf("%s: BytesLive %d != BytesUsed %d", stage, res.BytesLive, st.BytesUsed)
		}
		assertCleanAudit(t, h, stage)
	}

	res := col.Collect(Plan{Mode: ModeNormal, TagRefs: true, AgeStaleness: true})
	if res.ObjectsFreed != goroutines/2*perG {
		t.Fatalf("first collection freed %d, want %d (degraded=%v)",
			res.ObjectsFreed, goroutines/2*perG, res.Degraded)
	}
	check("first", res)

	for i := 0; i < 6; i++ {
		res = col.Collect(Plan{Mode: ModeNormal, TagRefs: true})
		if res.ObjectsFreed != 0 {
			t.Fatalf("round %d: steady-state collection freed %d objects (degraded=%v)",
				i, res.ObjectsFreed, res.Degraded)
		}
		check(fmt.Sprintf("round %d", i), res)
	}
	if inj.Fires(faultinject.TraceWorkerPanic) > 0 && col.DegradedTraces() == 0 {
		t.Fatal("panics fired but no degraded trace was recorded")
	}
	if col.DegradedTraces() != col.RecoveredPanics() {
		t.Fatalf("degraded=%d recovered=%d, want equal (only panics armed)",
			col.DegradedTraces(), col.RecoveredPanics())
	}
	t.Logf("injected %d panics across %d collections (%d degraded)",
		inj.Fires(faultinject.TraceWorkerPanic), col.Index(), col.DegradedTraces())
}
