package gc

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/heap"
)

// Tests of the tracer's worker life-cycle: helpers start when there is a
// batch for them, park when there is none, and are all joined when process
// returns. They assert on counts (helper launches, objects, edges), never on
// wall time.

// hourglass is a narrow → wide → narrow graph: a neck chain from the root,
// a hub fanning out to spokes (the hub's scan overflows the mark stack, so
// it spills), and every spoke converging on one stale tail chain of its own
// class. Workers park along the chains and are woken by the hub.
type hourglass struct {
	root    heap.Ref
	objects uint64 // everything reachable from root
	tail    uint64 // objects in the tail chain
	tailCls heap.ClassID
	edges   uint64 // non-null reference slots reachable from root
}

const (
	hgNeck  = 100
	hgFan   = 800 // > spillAt + 2*batchSize: the hub's scan spills three batches
	hgSpoke = 2
	hgTail  = 200
)

func buildHourglass(t *testing.T, th *testHeap) hourglass {
	t.Helper()
	node := th.class(t, "Node", 1, 16)
	hub := th.class(t, "Hub", hgFan, 0)
	tailCls := th.class(t, "Tail", 1, 16)
	chain := func(cls heap.ClassID, n int, end heap.Ref) heap.Ref {
		for i := 0; i < n; i++ {
			r := th.alloc(t, cls)
			if !end.IsNull() {
				th.link(r, 0, end)
			}
			end = r
		}
		return end
	}
	tail := chain(tailCls, hgTail, heap.Ref(0))
	th.h.ForEach(func(_ heap.ObjectID, obj *heap.Object) {
		if obj.Class() == tailCls {
			th.h.SetStale(obj, 3)
		}
	})
	h := th.alloc(t, hub)
	for i := 0; i < hgFan; i++ {
		th.link(h, i, chain(node, hgSpoke, tail))
	}
	hg := hourglass{root: chain(node, hgNeck, h), tail: hgTail, tailCls: tailCls}
	hg.objects = hgNeck + 1 + hgFan*hgSpoke + hgTail
	hg.edges = hgNeck + hgFan*(hgSpoke+1) + hgTail - 1
	return hg
}

func staleTarget(_, _ heap.ClassID, stale uint8) bool { return stale >= 2 }

// TestHelpersFollowTheWork: a chain never holds two mark-stack entries, so
// a 4-worker closure over it launches no helper; a wide tree spills, so it
// launches them, and every object is still scanned exactly once (each edge
// of a tree is offered to Candidate once).
func TestHelpersFollowTheWork(t *testing.T) {
	th := newTestHeap(t)
	node := th.class(t, "Node", 1, 0)
	var head heap.Ref
	const chainLen = 50000
	for i := 0; i < chainLen; i++ {
		r := th.alloc(t, node)
		if !head.IsNull() {
			th.link(r, 0, head)
		}
		head = r
	}
	th.roots.refs = []heap.Ref{head}
	col := th.collector(4)
	for _, plan := range []Plan{{Mode: ModeNormal}, {Mode: ModeSelect, Candidate: staleTarget}, {Mode: ModePrune}} {
		if res := col.Collect(plan); res.ObjectsLive != chainLen {
			t.Fatalf("%v: chain has %d live objects, want %d", plan.Mode, res.ObjectsLive, chainLen)
		}
	}
	if n := col.scratch.launches; n != 0 {
		t.Fatalf("3 closures over a chain launched %d helpers, want 0", n)
	}

	th = newTestHeap(t)
	wide := th.class(t, "Wide", 1024, 0)
	mid := th.class(t, "Mid", 8, 0)
	leaf := th.class(t, "Leaf", 0, 8)
	root := th.alloc(t, wide)
	for i := 0; i < 1024; i++ {
		m := th.alloc(t, mid)
		th.link(root, i, m)
		for j := 0; j < 8; j++ {
			th.link(m, j, th.alloc(t, leaf))
		}
	}
	th.roots.refs = []heap.Ref{root}
	const objects = 1 + 1024 + 1024*8
	col = th.collector(4)
	var edges atomic.Int64
	res := col.Collect(Plan{Mode: ModeSelect, Candidate: func(_, _ heap.ClassID, _ uint8) bool {
		edges.Add(1)
		return false
	}})
	if res.ObjectsLive != objects || edges.Load() != objects-1 {
		t.Fatalf("wide tree: %d live objects, %d edges scanned; want %d and %d",
			res.ObjectsLive, edges.Load(), objects, objects-1)
	}
	if n := col.scratch.launches; n < 1 || n > 3 {
		t.Fatalf("a spilling 4-worker closure launched %d helpers, want 1..3", n)
	}
}

// TestLeavesTalliedAtClaim: a leaf has no slots to scan, so the closure
// tallies it where it claims it and never pushes it. A root with 4096 leaf
// children therefore never fills a mark stack, a 2-worker closure over it
// launches no helper, and the tallies are still exact: every object once,
// its bytes once, its stale counter in MaxStale. The stale closure tallies
// a candidate's leaves the same way and still sizes them.
func TestLeavesTalliedAtClaim(t *testing.T) {
	const leaves = 4096
	th := newTestHeap(t)
	small := th.class(t, "Small", 0, 8)
	large := th.class(t, "Large", 0, 200)
	bag := th.class(t, "Bag", 64, 0)
	root := th.alloc(t, th.class(t, "Root", leaves, 0))
	wantBytes := th.h.Get(root).Size()
	for i := 0; i < leaves; i++ {
		cls := small
		if i%3 == 0 {
			cls = large
		}
		r := th.alloc(t, cls)
		if i == 1234 {
			th.h.SetStale(th.h.Get(r), 5)
		}
		th.link(root, i, r)
		wantBytes += th.h.Get(r).Size()
	}
	th.roots.refs = []heap.Ref{root}
	col := th.collector(2)
	res := col.Collect(Plan{Mode: ModeNormal})
	if res.ObjectsLive != leaves+1 || res.BytesLive != wantBytes || res.MaxStale != 5 {
		t.Fatalf("root with %d leaves: ObjectsLive %d, BytesLive %d, MaxStale %d; want %d, %d, 5",
			leaves, res.ObjectsLive, res.BytesLive, res.MaxStale, leaves+1, wantBytes)
	}
	if n := col.scratch.launches; n != 0 {
		t.Fatalf("a closure over a root and its leaves launched %d helpers, want 0", n)
	}

	// Hang a bag of 64 leaves off the root in place of its first leaf: the
	// SELECT cycle defers the bag, and the stale closure sizes it and its
	// leaves.
	wantBytes -= th.h.Get(th.h.Get(root).Ref(0)).Size()
	b := th.alloc(t, bag)
	th.link(root, 0, b)
	staleBytes := th.h.Get(b).Size()
	for i := 0; i < 64; i++ {
		r := th.alloc(t, large)
		th.link(b, i, r)
		staleBytes += th.h.Get(r).Size()
	}
	wantBytes += staleBytes
	res = col.Collect(Plan{Mode: ModeSelect, Candidate: func(_, tgt heap.ClassID, _ uint8) bool { return tgt == bag }})
	if res.Candidates != 1 || res.StaleBytes != staleBytes {
		t.Fatalf("bag: %d candidates sized %d bytes, want 1 and %d", res.Candidates, res.StaleBytes, staleBytes)
	}
	if res.ObjectsLive != leaves+1+64 || res.BytesLive != wantBytes {
		t.Fatalf("with the bag: ObjectsLive %d, BytesLive %d; want %d, %d", res.ObjectsLive, res.BytesLive, leaves+1+64, wantBytes)
	}
	if n := col.scratch.launches; n != 0 {
		t.Fatalf("closures over leaves launched %d helpers, want 0", n)
	}
}

// TestTerminationStress drives closures whose width goes narrow → wide →
// narrow, so helpers are launched, parked, woken and joined many times per
// run, in every mode and through the concurrent driver, whose remark runs
// process a second time on a tracer whose helpers have all exited. Counts
// must match the graph at every worker count. Run under -race, and at
// GOMAXPROCS=1 where a lost wake-up cannot hide behind a spinning thread.
func TestTerminationStress(t *testing.T) {
	rounds := 25
	if testing.Short() {
		rounds = 8
	}
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			th := newTestHeap(t)
			hg := buildHourglass(t, th)
			th.roots.refs = []heap.Ref{hg.root}
			col := th.collector(workers)
			var edges atomic.Uint64
			selectPlan := Plan{Mode: ModeSelect, TagRefs: true,
				Candidate: func(_, _ heap.ClassID, stale uint8) bool {
					edges.Add(1)
					return stale >= 2
				}}
			checkSelect := func(stage string, res Result, live uint64) {
				t.Helper()
				// Every spoke's edge into the stale tail is a candidate; the
				// first one traced owns the whole tail.
				if res.ObjectsLive != live || res.Candidates != hgFan || edges.Swap(0) != hg.edges-(hg.tail-1) {
					t.Fatalf("%s: live %d candidates %d, want %d and %d", stage, res.ObjectsLive, res.Candidates, live, hgFan)
				}
			}
			for i := 0; i < rounds; i++ {
				if res := col.Collect(Plan{Mode: ModeNormal, TagRefs: true}); res.ObjectsLive != hg.objects {
					t.Fatalf("round %d normal: live %d, want %d", i, res.ObjectsLive, hg.objects)
				}
				checkSelect(fmt.Sprintf("round %d select", i), col.Collect(selectPlan), hg.objects)

				// Concurrent SELECT: a second hourglass, unreachable from the
				// roots, arrives as one SATB gray at the remark, so the second
				// process call has a hub of its own to spill. It is built
				// before the start, as a gray is: an object born during the
				// cycle in a slot the start marked is never traced.
				gray := buildHourglass(t, th)
				cy := col.StartConcurrent(selectPlan)
				cy.Mark()
				before := col.scratch.launches
				cy.Remark([]heap.Ref{gray.root}, "")
				if col.scratch.launches == before {
					t.Fatalf("round %d: the remark's closure over a spilling gray launched no helper", i)
				}
				cy.Sweep()
				res := cy.Finish()
				if res.Degraded || res.Candidates != 2*hgFan {
					t.Fatalf("round %d concurrent select: %+v", i, res)
				}
				edges.Store(0)
				// The gray hourglass is garbage by the next cycle.
				if res := col.Collect(Plan{Mode: ModeNormal}); res.ObjectsFreed != gray.objects {
					t.Fatalf("round %d: freed %d, want the gray hourglass's %d", i, res.ObjectsFreed, gray.objects)
				}
			}
			res := col.Collect(Plan{Mode: ModePrune, TagRefs: true, ShouldPrune: staleTarget})
			if res.PrunedRefs != hgFan || res.ObjectsFreed != hg.tail {
				t.Fatalf("prune: poisoned %d refs and freed %d objects, want %d and %d", res.PrunedRefs, res.ObjectsFreed, hgFan, hg.tail)
			}
			assertCleanAudit(t, th.h, "after prune")
		})
	}
}

// TestAbortWhileParked: each way a parallel closure can be abandoned — the
// injected watchdog trip, the real watchdog timer, a panic out of a plan
// callback, and an injected panic in worker 0 before any helper exists —
// must wake the parked helpers, join every one, and hand a correct live set
// to the serial re-run. The first three are raised from the scan of the
// tail chain after every other launched worker has parked.
func TestAbortWhileParked(t *testing.T) { abortWhileParked(t, false) }

// TestAbortWhileParkedConcurrent raises the same aborts inside a concurrent
// cycle's Mark, driven through start(plan, true) and the phases — all but
// the real timer, which guards STW closures only. Each must degrade with
// the cause, counters and live set an STW cycle gets.
func TestAbortWhileParkedConcurrent(t *testing.T) { abortWhileParked(t, true) }

func abortWhileParked(t *testing.T, concurrent bool) {
	cycles := 1000
	if testing.Short() {
		cycles = 200
	}
	th := newTestHeap(t)
	hg := buildHourglass(t, th)
	th.roots.refs = []heap.Ref{hg.root}
	inj := faultinject.New(5)
	col := th.collector(4)
	col.SetFaultInjector(inj)

	// onTail runs once per cycle, inside the first scan that offers an edge
	// out of the tail class, on a parallel closure only (the serial re-run
	// offers the same edges).
	var onTail atomic.Pointer[func(tr *tracer)]
	var parkedAborts int
	plan := Plan{Mode: ModeSelect, Candidate: func(src, _ heap.ClassID, _ uint8) bool {
		tr := col.scratch.pool[0].t
		if src != hg.tailCls || len(tr.workers) == 1 {
			return false
		}
		if f := onTail.Swap(nil); f != nil {
			// The hub spilled on the way here, so there are helpers to wait for.
			for tr.idle.Load() != tr.launched.Load()-1 {
				if tr.aborted.Load() {
					return false // the real timer won the race to the tail
				}
				time.Sleep(10 * time.Microsecond)
			}
			parkedAborts++
			(*f)(tr)
		}
		return false
	}}
	arm := func(f func(tr *tracer)) { onTail.Store(&f) }

	before := runtime.NumGoroutine()
	var watchdogs, panics uint64
	for i := 0; i < cycles; i++ {
		want := ""
		col.SetWatchdog(0)
		onTail.Store(nil) // a hook the real timer beat to the tail is still armed
		switch i % 5 {
		case 0: // no fault
		case 1:
			want = "watchdog"
			arm(func(*tracer) { inj.Arm(faultinject.TraceWatchdogTrip, 1) })
		case 2:
			if concurrent {
				continue
			}
			want = "watchdog"
			col.SetWatchdog(time.Millisecond)
			arm(func(tr *tracer) {
				for !tr.aborted.Load() { // a closure that cannot finish in time
					time.Sleep(10 * time.Microsecond)
				}
			})
		case 3:
			want = "worker-panic"
			arm(func(*tracer) { panic("plan callback panic") })
		case 4:
			want = "worker-panic"
			inj.Arm(faultinject.TraceWorkerPanic, 1) // fires in the first scan: worker 0, no helper yet
		}
		var res Result
		if concurrent {
			cy := col.start(plan, true)
			cy.Mark()
			cy.Remark(nil, "")
			cy.Sweep()
			res = cy.Finish()
		} else {
			res = col.Collect(plan)
		}
		inj.Arm(faultinject.TraceWatchdogTrip, 0)
		inj.Arm(faultinject.TraceWorkerPanic, 0)
		if res.DegradeCause != want || res.Degraded != (want != "") {
			t.Fatalf("cycle %d: degraded %v cause %q, want cause %q", i, res.Degraded, res.DegradeCause, want)
		}
		if res.ObjectsLive != hg.objects || res.ObjectsFreed != 0 {
			t.Fatalf("cycle %d (%s): live %d freed %d, want %d and 0", i, want, res.ObjectsLive, res.ObjectsFreed, hg.objects)
		}
		switch want {
		case "watchdog":
			watchdogs++
		case "worker-panic":
			panics++
		}
	}
	if want := cycles / 5 * 2; parkedAborts < want {
		t.Fatalf("%d aborts were raised with every other worker parked, want at least %d", parkedAborts, want)
	}
	if col.WatchdogAborts() != watchdogs || col.RecoveredPanics() != panics || col.DegradedTraces() != watchdogs+panics {
		t.Fatalf("counted %d watchdog aborts, %d panics, %d degraded; want %d, %d, %d",
			col.WatchdogAborts(), col.RecoveredPanics(), col.DegradedTraces(), watchdogs, panics, watchdogs+panics)
	}
	// Every helper is joined before Collect returns; only a watchdog timer's
	// own goroutine may still be on its way out.
	for try := 0; runtime.NumGoroutine() > before; try++ {
		if try == 200 {
			t.Fatalf("%d goroutines before %d cycles, %d after", before, cycles, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
	assertCleanAudit(t, th.h, "after aborts")
}

// handOffHeap builds a graph whose closure starts alone and then spills: a
// single root, a neck chain worker 0 walks by itself, then a hub whose scan
// overflows the mark stack, so helpers launch while worker 0 holds marks it
// made with plain stores. Every hub child points at two other children and
// at one of several stale tails that share a common end, so workers race to
// claim the same objects and a SELECT cycle has many candidates whose stale
// closures overlap. The builder is deterministic: every call gives the same
// IDs and graph.
func handOffHeap(t *testing.T) *testHeap {
	t.Helper()
	const neck, fan, tails, tailLen = 300, 1200, 8, 50
	th := newTestHeap(t)
	node := th.class(t, "Node", 1, 16)
	kid := th.class(t, "Kid", 3, 8)
	tailCls := th.class(t, "Tail", 1, 16)
	shared := th.alloc(t, tailCls)
	var tailHeads []heap.Ref
	for i := 0; i < tails; i++ {
		end := shared
		for j := 0; j < tailLen; j++ {
			r := th.alloc(t, tailCls)
			th.link(r, 0, end)
			end = r
		}
		tailHeads = append(tailHeads, end)
	}
	th.h.ForEach(func(_ heap.ObjectID, obj *heap.Object) { th.h.SetStale(obj, 3) })
	hub := th.alloc(t, th.class(t, "Hub", fan, 0))
	kids := make([]heap.Ref, fan)
	for i := range kids {
		kids[i] = th.alloc(t, kid)
		th.link(hub, i, kids[i])
	}
	for i, k := range kids {
		th.link(k, 0, kids[(i*7+1)%fan])
		th.link(k, 1, kids[(i*13+5)%fan])
		th.link(k, 2, tailHeads[i%tails])
	}
	root := hub
	for i := 0; i < neck; i++ {
		r := th.alloc(t, node)
		th.link(r, 0, root)
		root = r
	}
	for i := 0; i < 200; i++ {
		th.alloc(t, node) // garbage
	}
	th.roots.refs = []heap.Ref{root}
	return th
}

// TestClaimHandOff: worker 0 claims with plain stores while it traces alone
// and must switch to the CAS before its first helper starts. Over a closure
// that starts alone and then spills, at 4 workers, GOMAXPROCS 1 and 4, STW
// and concurrent, Normal and SELECT (whose stale closure then plain-stores
// on worker 0, after the helpers are joined, over overlapping candidates):
// every live object is scanned exactly once, the live set is the serial
// closure's, and helpers did launch. A worker 0 that kept plain-storing
// after a launch double-claims objects, which the scan count shows, and
// races the helpers' CAS, which -race reports.
func TestClaimHandOff(t *testing.T) {
	plans := map[string]Plan{
		"normal": {Mode: ModeNormal, TagRefs: true},
		"select": {Mode: ModeSelect, TagRefs: true, Candidate: staleTarget},
	}
	collect := func(col *Collector, plan Plan, concurrent bool) Result {
		cy := col.start(plan, concurrent)
		cy.Mark()
		cy.Remark(nil, "")
		cy.Sweep()
		return cy.Finish()
	}
	for _, procs := range []int{1, 4} {
		for _, name := range []string{"normal", "select"} {
			for _, concurrent := range []bool{false, true} {
				t.Run(fmt.Sprintf("gomaxprocs=%d/%s/concurrent=%v", procs, name, concurrent), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					plan := plans[name]
					serial := handOffHeap(t)
					want := collect(serial.collector(1), plan, concurrent)
					wantLive := liveSnapshot(serial.h)

					th := handOffHeap(t)
					col := th.collector(4)
					for round := 0; round < 5; round++ {
						res := collect(col, plan, concurrent)
						var scans uint64
						for i := range col.scratch.pool {
							scans += col.scratch.pool[i].scans
						}
						if res.Degraded || scans != res.ObjectsLive || res.ObjectsLive != want.ObjectsLive {
							t.Fatalf("round %d: scanned %d objects, %d live (serial %d), degraded %v",
								round, scans, res.ObjectsLive, want.ObjectsLive, res.Degraded)
						}
						if name == "select" && (res.Candidates < 2 || res.Candidates != want.Candidates || res.StaleBytes != want.StaleBytes) {
							t.Fatalf("round %d: %d candidates, %d stale bytes; serial %d, %d",
								round, res.Candidates, res.StaleBytes, want.Candidates, want.StaleBytes)
						}
						if round == 0 {
							assertSameLiveSet(t, liveSnapshot(th.h), wantLive)
						}
					}
					if col.scratch.launches == 0 {
						t.Fatal("no helper was launched: the closure never left worker 0")
					}
				})
			}
		}
	}
}
