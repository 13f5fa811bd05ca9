package vm

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"leakpruning/internal/heap"
	"leakpruning/internal/vmerrors"
)

// regionTimeout bounds every Region scenario: a thread left running where it
// should be at its safepoint deadlocks the next stop, and that must fail a
// test, not hang it.
const regionTimeout = 60 * time.Second

// within runs scenario on its own goroutine and fails the test if it has not
// returned after regionTimeout. The scenario reports its own failures with
// t.Errorf.
func within(t *testing.T, what string, scenario func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		scenario()
	}()
	select {
	case <-done:
	case <-time.After(regionTimeout):
		t.Fatalf("%s did not finish within %v: a held thread missed its safepoint", what, regionTimeout)
	}
}

// catch runs fn and returns what it panicked with (nil if it returned).
func catch(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// atSafepoint reports whether th is out of its region — state safe, not held
// — and a Stats call from another goroutine returns, which it can only do
// once th is at its safepoint.
func atSafepoint(t *testing.T, v *VM, th *Thread, after string) {
	t.Helper()
	if th.state.Load() != threadSafe || th.held {
		t.Errorf("after %s: state %d held %v, want safe and not held", after, th.state.Load(), th.held)
		return
	}
	done := make(chan struct{})
	go func() {
		v.Stats()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(regionTimeout):
		t.Errorf("after %s: Stats from another goroutine did not return", after)
	}
}

// regionChurn is one worker's program: a list under its own global that
// grows by a node (with a leaf) per iteration, is walked eight nodes deep,
// and is dropped every 50 iterations. It returns the loads and allocations
// it issued. inRegion runs each iteration inside a Region, as a workload's
// Iterate does. Each iteration yields halfway, as a preempted goroutine
// would, so at GOMAXPROCS 1 a stop is raised while the thread is held.
func regionChurn(th *Thread, node, leaf heap.ClassID, g, iters int, inRegion bool) (loads, allocs uint64) {
	for i := 0; i < iters; i++ {
		iteration := func() {
			n := th.New(node)
			th.Store(n, 1, th.New(leaf))
			th.Store(n, 0, th.LoadGlobal(g))
			th.StoreGlobal(g, n)
			allocs += 2
			runtime.Gosched()
			cur := th.LoadGlobal(g)
			for d := 0; d < 8 && !cur.IsNull(); d++ {
				th.Load(cur, 1)
				cur = th.Load(cur, 0)
				loads += 2
			}
			if i%50 == 49 {
				th.StoreGlobal(g, heap.Null)
			}
		}
		th.Scope(func() {
			if inRegion {
				th.Region(iteration)
			} else {
				iteration()
			}
		})
	}
	return loads, allocs
}

// TestRegionUnderStops: held threads loop Load/Store/New while another
// goroutine calls Collect and Stats back to back. Both sides must keep
// returning — a held thread reaches its safepoint by parking at its next
// operation — the counters must be exact after the join, and the live set
// after a final collection must be the one a per-op run leaves. Runs at
// GOMAXPROCS 1, where a lost wake-up cannot hide behind a spinning P, and 4.
func TestRegionUnderStops(t *testing.T) {
	const workers, iters = 2, 1000
	run := func(held bool) (heap.Stats, int) {
		v := New(Options{HeapLimit: 8 << 20, EnableBarriers: true, GCWorkers: 2})
		node := v.DefineClass("Node", 2, 64)
		leaf := v.DefineClass("Leaf", 0, 256)
		globals := []int{v.AddGlobal(), v.AddGlobal()}
		var wantLoads, wantAllocs [workers]uint64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				err := v.RunThread(fmt.Sprintf("held-%d", w), func(th *Thread) {
					wantLoads[w], wantAllocs[w] = regionChurn(th, node, leaf, globals[w], iters, held)
				})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
				}
			}(w)
		}
		stops := 0
		if held {
			// The stopper's first stop releases the workers, so every later
			// one overlaps them until they finish.
			done := make(chan struct{})
			stopper := make(chan struct{})
			go func() {
				defer close(stopper)
				for {
					select {
					case <-done:
						return
					default:
					}
					v.Collect()
					v.Stats()
					if stops++; stops == 1 {
						close(start)
					}
					runtime.Gosched()
				}
			}()
			wg.Wait()
			close(done)
			<-stopper
		} else {
			close(start)
			wg.Wait()
		}
		st := v.Stats()
		if want := wantLoads[0] + wantLoads[1]; st.Loads != want {
			t.Errorf("held=%v: Stats().Loads = %d, want %d", held, st.Loads, want)
		}
		if want := wantAllocs[0] + wantAllocs[1]; st.Allocations != want {
			t.Errorf("held=%v: Stats().Allocations = %d, want %d", held, st.Allocations, want)
		}
		v.Collect()
		return v.HeapStats(), stops
	}

	perOp, _ := run(false)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		within(t, fmt.Sprintf("GOMAXPROCS=%d", procs), func() {
			hs, stops := run(true)
			t.Logf("GOMAXPROCS=%d: %d stops", procs, stops)
			if stops < 2 { // the first one only releases the workers
				t.Errorf("GOMAXPROCS=%d: no stop overlapped the held threads", procs)
			}
			if hs.ObjectsUsed != perOp.ObjectsUsed || hs.BytesUsed != perOp.BytesUsed {
				t.Errorf("GOMAXPROCS=%d: live set %d objects / %d bytes, per-op run %d / %d",
					procs, hs.ObjectsUsed, hs.BytesUsed, perOp.ObjectsUsed, perOp.BytesUsed)
			}
		})
	}
}

// TestRegionOwnCollectionAndOOM: inside a region, New crosses the soft
// trigger and runs the collection itself, then keeps everything reachable
// until allocSlow throws OutOfMemoryError. The collection must suspend the
// region around its stop (or the thread waits for itself), the thread must
// be held again afterwards, and the OOM must leave it at its safepoint.
func TestRegionOwnCollectionAndOOM(t *testing.T) {
	v := New(Options{HeapLimit: 256 << 10, EnableBarriers: true, GCWorkers: 1})
	node := v.DefineClass("Node", 1, 1024)
	g := v.AddGlobal()
	th := v.NewThread("held")
	defer th.Exit()
	th.PushFrame(0)
	within(t, "own collection then OOM", func() {
		th.Region(func() {
			trap := catch(func() {
				collected := false
				for !collected {
					n := th.New(node)
					th.Store(n, 0, th.LoadGlobal(g))
					th.StoreGlobal(g, n)
					collected = v.collector.Index() > 0
				}
				if th.state.Load() != threadRunning || !th.held {
					t.Errorf("after its own collection: state %d held %v, want running and held", th.state.Load(), th.held)
				}
				for {
					n := th.New(node)
					th.Store(n, 0, th.LoadGlobal(g))
					th.StoreGlobal(g, n)
				}
			})
			err, _ := vmerrors.Recover(trap)
			if !vmerrors.IsOOM(err) {
				t.Errorf("trap = %v, want OutOfMemoryError", trap)
			}
			atSafepoint(t, v, th, "OOM")
		})
	})
}

// TestRegionTraps: a poison trap, a bad-slot trap, a dead-reference trap and
// a bad-global trap each leave the region before unwinding, so the thread is
// at its safepoint even when the trap is recovered inside the body.
func TestRegionTraps(t *testing.T) {
	v := New(Options{HeapLimit: 1 << 20, EnableBarriers: true, GCWorkers: 1})
	node := v.DefineClass("Node", 1, 0)
	th := v.NewThread("held")
	defer th.Exit()
	th.PushFrame(0)
	within(t, "traps", func() {
		for _, tc := range []struct {
			name string
			op   func()
		}{
			{"poison trap", func() {
				a, b := th.New(node), th.New(node)
				th.Store(a, 0, b)
				v.heap.Get(a).SetRef(0, b.WithPoison())
				th.Load(a, 0)
			}},
			{"bad-slot trap", func() { th.Load(th.New(node), 3) }},
			{"dead-reference trap", func() { th.Load(heap.Null, 0) }},
			{"bad-global trap", func() { th.LoadGlobal(99) }},
		} {
			th.Region(func() {
				if catch(tc.op) == nil {
					t.Errorf("%s: the operation returned", tc.name)
				}
				atSafepoint(t, v, th, tc.name)
			})
		}
	})
	if st := v.Stats(); st.PoisonTraps != 1 {
		t.Fatalf("PoisonTraps = %d, want 1", st.PoisonTraps)
	}
}

// TestRegionFaultIn: under the Melt baseline, a Load inside a region that
// touches an offloaded object faults it in through a collection (the heap
// has no room for it otherwise). The fault-in suspends the region around its
// stop and resumes it: the thread is held again when Load returns.
func TestRegionFaultIn(t *testing.T) {
	v := New(Options{HeapLimit: 1 << 20, EnableBarriers: true, GCWorkers: 1, OffloadDisk: 1 << 20})
	big := v.DefineClass("Big", 1, 400<<10)
	filler := v.DefineClass("Filler", 0, 700<<10)
	g := v.AddGlobal()
	th := v.NewThread("held")
	defer th.Exit()
	th.PushFrame(0)
	var b heap.Ref
	var cyclesBefore uint64
	within(t, "fault-in", func() {
		b = th.New(big)
		th.StoreGlobal(g, b)
		if err := v.heap.Offload(b.ID()); err != nil {
			t.Errorf("offload: %v", err)
			return
		}
		// Garbage the heap cannot take b back beside until a collection.
		th.Scope(func() { th.New(filler) })
		cyclesBefore = v.collector.Index()
		th.Region(func() {
			th.Load(th.LoadGlobal(g), 0)
			if th.state.Load() != threadRunning || !th.held {
				t.Errorf("after the fault-in: state %d held %v, want running and held", th.state.Load(), th.held)
			}
		})
	})
	if v.heap.Get(b).IsOffloaded() {
		t.Fatal("the object is still offloaded after the Load")
	}
	if v.collector.Index() == cyclesBefore {
		t.Fatal("the fault-in never collected: the test no longer reaches the stopping path")
	}
}

// TestRegionNested: a Region inside a Region is a plain call — the thread
// stays held after the inner one returns and leaves at the outer one — and a
// trap in the inner body unwinds through both to the safepoint.
func TestRegionNested(t *testing.T) {
	v := New(Options{HeapLimit: 1 << 20, EnableBarriers: true, GCWorkers: 1})
	node := v.DefineClass("Node", 1, 0)
	th := v.NewThread("held")
	defer th.Exit()
	th.PushFrame(0)
	within(t, "nested regions", func() {
		th.Region(func() {
			a := th.New(node)
			th.Region(func() { th.Store(a, 0, th.New(node)) })
			if th.state.Load() != threadRunning || !th.held {
				t.Errorf("after the inner region: state %d held %v, want running and held", th.state.Load(), th.held)
			}
			th.Load(a, 0)
		})
		atSafepoint(t, v, th, "the outer region")
		trap := catch(func() {
			th.Region(func() {
				th.Region(func() { th.Load(th.New(node), 7) })
			})
		})
		if trap == nil {
			t.Error("the bad-slot load in the inner region returned")
		}
		atSafepoint(t, v, th, "a trap in the inner region")
	})
	if st := v.Stats(); st.Loads != 2 || st.Allocations != 3 {
		t.Fatalf("Stats: loads %d allocs %d, want 2 / 3", st.Loads, st.Allocations)
	}
}
