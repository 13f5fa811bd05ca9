package vm

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"leakpruning/internal/core"
	"leakpruning/internal/heap"
	"leakpruning/internal/trace"
	"leakpruning/internal/vmerrors"
)

// modeRun is what one run of modeScript saw: every op's result, with
// references named by the script's own allocation order so runs whose IDs
// differ still compare; the op that trapped on poison (-1: none); and the
// VM's load and barrier-hit counts.
type modeRun struct {
	log         []string
	trapOp      int
	loads, hits uint64
}

// modeScript runs one fixed op script on a fresh thread of v: allocations,
// stores, dependent loads, NumRefs/ClassOf/SizeOf, slots tagged the way a
// collection tags them, objects moved to the simulated disk when v runs the
// offload baseline, and a last load of a poisoned slot. held runs it inside
// one Region.
func modeScript(t *testing.T, v *VM, held bool) modeRun {
	t.Helper()
	node := v.DefineClass("Node", 2, 16)
	leaf := v.DefineClass("Leaf", 0, 40)
	run := modeRun{trapOp: -1}
	names := map[heap.ObjectID]int{}
	name := func(r heap.Ref) string {
		if r.IsNull() {
			return "null"
		}
		if n, ok := names[r.ID()]; ok {
			return fmt.Sprintf("#%d", n)
		}
		return "unknown " + r.String()
	}
	// tag and poison write a slot behind the mutator's back, as a
	// collection's tracer does.
	tag := func(src, tgt heap.Ref, slot int) { v.heap.Get(src).SetRef(slot, tgt.WithStale()) }
	poison := func(src, tgt heap.Ref, slot int) { v.heap.Get(src).SetRef(slot, tgt.WithPoison()) }
	// offload moves an object to the simulated disk under the offload
	// baseline, so the next op on it faults it back in.
	offload := func(r heap.Ref) {
		if v.offloader != nil {
			if err := v.heap.Offload(r.ID()); err != nil {
				t.Fatalf("offload %v: %v", r, err)
			}
		}
	}
	err := v.RunThread("script", func(th *Thread) {
		body := func() {
			newObj := func(class heap.ClassID) heap.Ref {
				r := th.New(class)
				names[r.ID()] = len(names)
				run.log = append(run.log, "new "+name(r))
				return r
			}
			load := func(src heap.Ref, slot int) heap.Ref {
				run.trapOp = len(run.log)
				r := th.Load(src, slot)
				run.trapOp = -1
				run.log = append(run.log, fmt.Sprintf("load %s.%d = %s", name(src), slot, name(r)))
				return r
			}
			a, b, c := newObj(node), newObj(node), newObj(node)
			d := newObj(leaf)
			th.Store(a, 0, b)
			th.Store(b, 0, c)
			th.Store(c, 1, d)
			th.Store(a, 1, d)
			for r := a; !r.IsNull(); r = load(r, 0) {
			}
			load(c, 1)
			run.log = append(run.log, fmt.Sprintf("numrefs %d %d, class %s, size %d",
				th.NumRefs(a), th.NumRefs(d), th.ClassOf(d), th.SizeOf(b)))
			tag(a, b, 0)
			tag(c, d, 1)
			offload(c)
			load(a, 0) // cold path
			load(a, 0) // the cold path cleared the tag
			load(c, 1) // faults c in, then the cold path
			offload(b)
			th.Store(b, 1, d) // faults b in
			offload(a)
			run.log = append(run.log, fmt.Sprintf("numrefs %d, size %d", th.NumRefs(a), th.SizeOf(a)))
			load(load(load(a, 0), 0), 1)
			poison(b, c, 0)
			load(b, 0)
		}
		if held {
			th.Region(body)
		} else {
			body()
		}
	})
	var ie *vmerrors.InternalError
	switch {
	case err == nil:
		if run.trapOp >= 0 {
			t.Fatalf("op %d did not return", run.trapOp)
		}
	case !errors.As(err, &ie) || run.trapOp < 0:
		t.Fatalf("script died outside a poisoned load: %v", err)
	}
	st := v.Stats()
	run.loads, run.hits = st.Loads, st.BarrierHits
	return run
}

// TestLoadStoreModesAgree runs one op script under every mode the mode word
// selects: barriers off, conditional and unconditional, LazyBarriers before
// and after the OBSERVE flip, a recording VM and the offload baseline with
// fault-ins, each per op and inside a Region. Every run returns the same
// references and counts the same loads. Every run with barriers live takes
// the same cold paths and traps on the poisoned slot at the same op; the
// runs without them take none and load through the poison.
func TestLoadStoreModesAgree(t *testing.T) {
	const heapLimit = 1 << 20
	lazy := func() Options {
		return Options{HeapLimit: heapLimit, EnableBarriers: true, LazyBarriers: true, Policy: core.DefaultPolicy{}}
	}
	modes := []struct {
		name     string
		barriers bool
		opts     Options
		// flip drives a LazyBarriers VM into OBSERVE before the script.
		flip bool
	}{
		{"off", false, Options{HeapLimit: heapLimit}, false},
		{"conditional", true, Options{HeapLimit: heapLimit, EnableBarriers: true}, false},
		{"unconditional", true, Options{HeapLimit: heapLimit, EnableBarriers: true, Barrier: BarrierUnconditional}, false},
		{"lazy-before-flip", false, lazy(), false},
		{"lazy-after-flip", true, lazy(), true},
		{"recording", true, Options{HeapLimit: heapLimit, EnableBarriers: true}, false},
		{"melt", true, Options{HeapLimit: heapLimit, EnableBarriers: true, OffloadDisk: heapLimit}, false},
	}
	var on, off *modeRun
	for _, m := range modes {
		for _, held := range []bool{false, true} {
			label := fmt.Sprintf("%s/held=%v", m.name, held)
			m.opts.GCWorkers = 1
			var rec *trace.Recorder
			if m.name == "recording" {
				rec = trace.NewRecorder()
				m.opts.TraceRecorder = rec
			}
			v := New(m.opts)
			if m.flip && !flipLazyBarriers(t, v) {
				t.FailNow()
			}
			got := modeScript(t, v, held)
			ref := &off
			if m.barriers {
				ref = &on
			}
			if *ref == nil {
				*ref = &got
			} else if !reflect.DeepEqual(got, **ref) {
				t.Errorf("%s: %+v\nwant (the first run like it) %+v", label, got, **ref)
			}
			switch m.name {
			case "recording":
				var buf bytes.Buffer
				if _, err := rec.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				tr, err := trace.ReadTrace(buf.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				st, err := tr.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if n := uint64(st.ByKind[trace.EvLoad]); n != got.loads {
					t.Errorf("%s: recorded %d loads, the VM counted %d", label, n, got.loads)
				}
				if n := st.ByKind[trace.EvStore]; n != 5 {
					t.Errorf("%s: recorded %d stores, the script made 5", label, n)
				}
			case "melt":
				if f := v.OffloadStats().ObjectsFaults; f != 3 {
					t.Errorf("%s: %d fault-ins, want 3 (Load, Store and NumRefs each fault one object in)", label, f)
				}
			}
		}
	}
	if on == nil || off == nil {
		t.Fatal("a barrier class has no run")
	}
	if on.trapOp < 0 || off.trapOp >= 0 {
		t.Fatalf("poison: barriers live trapped at op %d, off at op %d; want a trap only with barriers", on.trapOp, off.trapOp)
	}
	if on.hits != 2 || off.hits != 0 {
		t.Errorf("barrier hits: %d live, %d off; want 2 and 0 (the two tagged slots)", on.hits, off.hits)
	}
	if on.loads != off.loads || !reflect.DeepEqual(on.log, off.log[:on.trapOp]) {
		t.Errorf("barriers live and off disagree before the poisoned load:\n%v\n%v", on, off)
	}

	t.Run("held threads across the flip", func(t *testing.T) {
		for _, procs := range []int{1, 4} {
			within(t, fmt.Sprintf("GOMAXPROCS=%d", procs), func() { heldAcrossFlip(t, procs) })
		}
	})
}

// flipLazyBarriers drives a LazyBarriers VM with a policy into OBSERVE: it
// allocates a rooted ballast of 60 % of the heap, past the soft trigger, so
// the allocation runs one collection. Its plan (INACTIVE) tags nothing, and
// its final pause flips the mode word. It reports whether it did.
func flipLazyBarriers(t *testing.T, v *VM) bool {
	t.Helper()
	if v.mode != barriersOff {
		t.Errorf("mode word %d before the flip, want barriers off", v.mode)
		return false
	}
	ballast := v.DefineClass("Ballast", 0, 0)
	g := v.AddGlobal()
	err := v.RunThread("ballast", func(th *Thread) {
		th.StoreGlobal(g, th.New(ballast, heap.WithScalarBytes(int(v.opts.HeapLimit*6/10))))
	})
	if err != nil {
		t.Errorf("ballast: %v", err)
		return false
	}
	if v.mode != barriersConditional || !v.ctrl.Observing() {
		t.Errorf("after the flip: mode word %d, observing %v; want conditional barriers in OBSERVE",
			v.mode, v.ctrl.Observing())
		return false
	}
	return true
}

// heldAcrossFlip runs four threads, each inside one Region loading its own
// tagged slot, while another thread's allocation runs the collection whose
// final pause makes the LazyBarriers flip under them. Before the
// flip no load takes the cold path and the tag stays; after it, each
// thread's first load of the slot takes it once and clears the tag.
func heldAcrossFlip(t *testing.T, procs int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const threads = 4
	v := New(Options{HeapLimit: 1 << 20, EnableBarriers: true, LazyBarriers: true,
		Policy: core.DefaultPolicy{}, GCWorkers: 1})
	node := v.DefineClass("Node", 1, 0)
	var (
		flipped atomic.Bool
		ready   sync.WaitGroup
		done    sync.WaitGroup
		srcs    [threads]*heap.Object
	)
	ready.Add(threads)
	done.Add(threads)
	for i := 0; i < threads; i++ {
		go func() {
			defer done.Done()
			err := v.RunThread(fmt.Sprintf("held-%d", i), func(th *Thread) {
				a := th.New(node)
				tgt := th.New(node)
				th.Store(a, 0, tgt)
				srcs[i] = v.heap.Get(a)
				srcs[i].SetRef(0, tgt.WithStale())
				th.Region(func() {
					if got := th.Load(a, 0); got != tgt {
						t.Errorf("thread %d: load before the flip = %v, want %v", i, got, tgt)
					}
					ready.Done()
					for !flipped.Load() {
						th.Load(a, 0)
					}
					for j := 0; j < 64; j++ {
						if got := th.Load(a, 0); got != tgt {
							t.Errorf("thread %d: load after the flip = %v, want %v", i, got, tgt)
						}
					}
				})
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	ready.Wait()
	if hits := v.Stats().BarrierHits; hits != 0 {
		t.Errorf("GOMAXPROCS=%d: %d cold-path hits before the flip", procs, hits)
	}
	for i, src := range srcs {
		if !src.Ref(0).IsStaleTagged() {
			t.Errorf("GOMAXPROCS=%d: thread %d's slot lost its tag before the flip", procs, i)
		}
	}
	// A fifth thread's allocation runs the collection that flips the mode
	// word while the four are held.
	flipLazyBarriers(t, v)
	flipped.Store(true)
	done.Wait()
	if hits := v.Stats().BarrierHits; hits != threads {
		t.Errorf("GOMAXPROCS=%d: %d cold-path hits, want %d (one per thread's tagged slot)", procs, hits, threads)
	}
	for i, src := range srcs {
		if src.Ref(0).IsStaleTagged() {
			t.Errorf("GOMAXPROCS=%d: thread %d's slot is still tagged after the flip", procs, i)
		}
	}
}
