package vm

import (
	"fmt"
	"testing"

	"leakpruning/internal/heap"
)

// requestShapedIDs runs the leakd request shape — one short-lived thread
// per request — with forced collections in between, and returns every
// object ID the threads were handed. The first request allocates once and
// exits: what it leaves behind decides the very next ID.
func requestShapedIDs(t *testing.T) []heap.ObjectID {
	t.Helper()
	v := New(Options{HeapLimit: 1 << 20, EnableBarriers: true, GCWorkers: 1})
	node := v.DefineClass("Node", 1, 24)
	keep := v.AddGlobal()
	var ids []heap.ObjectID
	for req, n := range []int{1, 3, 40, 1, 70, 40, 2, 64, 40, 5} {
		err := v.RunThread("request", func(th *Thread) {
			for i := 0; i < n; i++ {
				r := th.New(node)
				ids = append(ids, r.ID())
				if i == 0 && req%3 == 0 {
					th.StoreGlobal(keep, r) // something survives the next collection
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if req%2 == 1 {
			v.Collect()
		}
	}
	if viol := v.Verify(); len(viol) != 0 {
		t.Fatalf("audit: %v", viol)
	}
	return ids
}

// TestRequestShapedIDsMatchParent pins the IDs above to a list printed at
// an earlier commit: a thread that exits returns its unused slots in the
// order that makes the next thread's first ID the one a slot-at-a-time
// allocator would have handed out.
func TestRequestShapedIDsMatchParent(t *testing.T) {
	got := fmt.Sprint(requestShapedIDs(t))
	if got != requestShapedGolden {
		t.Fatalf("request-shaped IDs changed\n got %s\nwant %s", got, requestShapedGolden)
	}
}

// TestFlushOrderIsDeterministic interleaves three live threads from one
// goroutine — a fixed schedule — and checks the IDs do not depend on the
// order a flush happens to visit the threads in (they live in a map).
func TestFlushOrderIsDeterministic(t *testing.T) {
	run := func() string {
		v := New(Options{HeapLimit: 1 << 20, EnableBarriers: true, GCWorkers: 1})
		node := v.DefineClass("Node", 1, 24)
		// Pile free slots onto the free list first, so the three threads
		// below draw their runs from recycled slots, not fresh carves.
		if err := v.RunThread("seed", func(th *Thread) {
			for i := 0; i < 600; i++ {
				th.New(node)
			}
		}); err != nil {
			t.Fatal(err)
		}
		v.Collect()
		var threads []*Thread
		for i := 0; i < 3; i++ {
			th := v.NewThread(fmt.Sprint("t", i))
			th.PushFrame(0)
			threads = append(threads, th)
		}
		var ids []heap.ObjectID
		for round := 0; round < 30; round++ {
			for i, th := range threads {
				th.Scope(func() {
					for k := 0; k < 5+7*i; k++ {
						ids = append(ids, th.New(node).ID())
					}
				})
			}
			if round%5 == 4 {
				v.Collect()
			}
		}
		for _, th := range threads {
			th.PopFrame()
			th.Exit()
		}
		if viol := v.Verify(); len(viol) != 0 {
			t.Fatalf("audit: %v", viol)
		}
		return fmt.Sprint(ids)
	}
	want := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d handed out different IDs for the same schedule", i)
		}
	}
}

// TestHeapStatsExactMidRun reads HeapStats while the allocating thread is
// alive and between flushes, where part of the accounting still sits in the
// thread's allocation context: on the thread's own goroutine and on another
// one after each per-op New, and on another one while the thread, held
// inside a Region whose births it has not published yet, is parked at a
// safepoint between two of its operations, and once the Region has ended.
// A thread publishes its births before it stores its safe state, so each
// read is exact.
func TestHeapStatsExactMidRun(t *testing.T) {
	v := New(Options{HeapLimit: 1 << 20, EnableBarriers: true, GCWorkers: 1})
	node := v.DefineClass("Node", 1, 24)
	size := heap.ObjectSize(1, 24)
	ask, answer := make(chan struct{}), make(chan heap.Stats)
	go func() {
		for range ask {
			answer <- v.HeapStats()
		}
	}()
	defer close(ask)
	exact := func(st heap.Stats, n uint64) bool {
		return st.ObjectsAlloc == n && st.BytesAlloc == n*size && st.ObjectsUsed == n
	}
	err := v.RunThread("main", func(th *Thread) {
		for i := uint64(1); i <= 200; i++ {
			th.New(node)
			st := v.HeapStats()
			if !exact(st, i) {
				t.Fatalf("after %d allocations: %+v", i, st)
			}
			ask <- struct{}{}
			if st := <-answer; !exact(st, i) {
				t.Fatalf("after %d allocations, read on another goroutine: %+v", i, st)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := v.HeapStats()
	if st.ObjectsAlloc != 200 || st.BytesUsed != 200*size || st.BytesAlloc-st.BytesFreed != st.BytesUsed {
		t.Fatalf("after exit: %+v", st)
	}
	if st.AllocShardLocks == 0 || st.AllocShardLocks >= st.ObjectsAlloc {
		t.Fatalf("AllocShardLocks = %d for %d allocations", st.AllocShardLocks, st.ObjectsAlloc)
	}

	// A held thread: 100 births inside one Region, then safepoint polls
	// until the reader, which stops the thread with a handshake, is done,
	// then 10 more births before the Region ends.
	const held = 100
	born, done := make(chan struct{}), make(chan struct{})
	go func() {
		<-born
		v.handshake() // returns once the thread has parked mid-region
		st := v.HeapStats()
		v.startTheWorld()
		if !exact(st, 200+held) {
			t.Errorf("while a held thread is parked after %d births: %+v", held, st)
		}
		close(done)
	}()
	err = v.RunThread("held", func(th *Thread) {
		th.Region(func() {
			var r heap.Ref
			for i := 0; i < held; i++ {
				r = th.New(node)
			}
			close(born)
			for polling := true; polling; {
				th.NumRefs(r) // a safepoint poll: the thread parks here
				select {
				case <-done:
					polling = false
				default:
				}
			}
			for i := 0; i < 10; i++ {
				th.New(node)
			}
		})
		// Out of the Region, the thread is at its safepoint: the births
		// since it parked were published when it left.
		ask <- struct{}{}
		if st := <-answer; !exact(st, 200+held+10) {
			t.Errorf("after the held region ended: %+v", st)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFinalizerTableFastOut: collections leave the per-freed-object hook
// out while the finalizer table is empty, and put it back the moment a
// finalizer is registered.
func TestFinalizerTableFastOut(t *testing.T) {
	v := New(Options{HeapLimit: 1 << 20, EnableBarriers: true, GCWorkers: 1})
	node := v.DefineClass("Node", 0, 16)
	ran := 0
	err := v.RunThread("main", func(th *Thread) {
		th.Scope(func() { th.New(node) })
		if v.onFreeHook() != nil {
			t.Fatal("free hook installed with no finalizer and no recorder")
		}
		v.Collect() // frees one object with an empty table
		th.Scope(func() {
			v.SetFinalizer(th.New(node), func(FinalizerInfo) { ran++ })
			r := th.New(node)
			v.SetFinalizer(r, func(FinalizerInfo) { ran += 100 })
			v.SetFinalizer(r, nil) // unregistered again
		})
		if got := v.finalizerCount.Load(); got != 1 || v.onFreeHook() == nil {
			t.Fatalf("finalizerCount = %d, hook installed %v, with one finalizer registered", got, v.onFreeHook() != nil)
		}
		v.Collect()
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1 || v.Stats().FinalizersRun != 1 {
		t.Fatalf("finalizers ran %d (stats %d), want exactly the registered one", ran, v.Stats().FinalizersRun)
	}
	if got := v.finalizerCount.Load(); got != 0 {
		t.Fatalf("finalizerCount = %d after the last finalizer ran", got)
	}
}

// requestShapedGolden was printed by requestShapedIDs.
const requestShapedGolden = "[" +
	"1 2 3 4 4 3 2 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 " +
	"22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 41 40 39 " +
	"38 37 36 35 34 33 32 31 30 29 28 27 26 25 24 23 22 21 20 19 18 17 16 15 " +
	"14 13 12 11 10 9 8 7 6 5 4 3 2 1 43 44 45 46 47 48 49 50 51 52 " +
	"53 54 55 56 57 58 59 60 61 62 63 64 65 66 67 68 69 70 71 72 73 74 75 76 " +
	"77 78 79 80 81 82 83 84 85 86 87 88 89 90 91 92 93 94 95 96 97 98 99 100 " +
	"101 102 103 104 105 106 107 108 109 110 111 111 110 109 108 107 106 105 104 103 102 101 100 99 " +
	"98 97 96 95 94 93 92 91 90 89 88 87 86 85 84 83 82 81 80 79 78 77 76 75 " +
	"74 73 72 71 70 69 68 67 66 65 64 63 62 61 60 59 58 57 56 55 54 53 52 51 " +
	"50 49 48 47 46 110 109 108 107 106 105 104 103 102 101 100 99 98 97 96 95 94 93 92 " +
	"91 90 89 88 87 86 85 84 83 82 81 80 79 78 77 76 75 74 73 72 71 70 69 68 " +
	"67 66" +
	"]"
