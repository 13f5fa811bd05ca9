package vm

import (
	"errors"
	"strings"
	"testing"

	"leakpruning/internal/core"
	"leakpruning/internal/heap"
	"leakpruning/internal/vmerrors"
)

func newVM(t *testing.T, opts Options) *VM {
	t.Helper()
	if opts.HeapLimit == 0 {
		opts.HeapLimit = 1 << 20
	}
	if opts.GCWorkers == 0 {
		opts.GCWorkers = 1
	}
	return New(opts)
}

func TestAllocLoadStoreRoundTrip(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true})
	pair := v.DefineClass("Pair", 2, 0)
	err := v.RunThread("main", func(th *Thread) {
		a := th.New(pair)
		b := th.New(pair)
		th.Store(a, 0, b)
		if got := th.Load(a, 0); got != b {
			t.Errorf("Load = %v, want %v", got, b)
		}
		if got := th.Load(a, 1); !got.IsNull() {
			t.Errorf("empty slot = %v", got)
		}
		if th.ClassOf(a) != "Pair" {
			t.Errorf("ClassOf = %q", th.ClassOf(a))
		}
		if th.NumRefs(a) != 2 {
			t.Errorf("NumRefs = %d", th.NumRefs(a))
		}
		if th.SizeOf(a) != heap.ObjectSize(2, 0) {
			t.Errorf("SizeOf = %d", th.SizeOf(a))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGlobalsAreRoots(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true})
	node := v.DefineClass("Node", 0, 0)
	g := v.AddGlobal()
	err := v.RunThread("main", func(th *Thread) {
		th.StoreGlobal(g, th.New(node))
	})
	if err != nil {
		t.Fatal(err)
	}
	v.Collect()
	if v.HeapStats().ObjectsUsed != 1 {
		t.Fatal("global-referenced object was collected")
	}
	// Clearing the global makes it garbage.
	err = v.RunThread("main", func(th *Thread) { th.StoreGlobal(g, heap.Null) })
	if err != nil {
		t.Fatal(err)
	}
	v.Collect()
	if v.HeapStats().ObjectsUsed != 0 {
		t.Fatal("unreferenced object survived")
	}
}

func TestFrameSlotsAreRoots(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true})
	node := v.DefineClass("Node", 0, 0)
	_ = v.RunThread("main", func(th *Thread) {
		th.InFrame(1, func(f *Frame) {
			f.Set(0, th.New(node))
			v.Collect()
			if v.HeapStats().ObjectsUsed != 1 {
				t.Error("frame-rooted object was collected")
			}
		})
	})
}

func TestLocalRefsAreRoots(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true})
	node := v.DefineClass("Node", 0, 0)
	_ = v.RunThread("main", func(th *Thread) {
		r := th.New(node) // held only in a Go local
		v.Collect()
		if _, ok := v.heap.Lookup(r.ID()); !ok {
			t.Error("local reference was not a root (register-root model violated)")
		}
	})
}

func TestScopeReleasesLocals(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true})
	node := v.DefineClass("Node", 0, 0)
	_ = v.RunThread("main", func(th *Thread) {
		th.Scope(func() {
			th.New(node)
		})
		v.Collect()
		if v.HeapStats().ObjectsUsed != 0 {
			t.Error("scope-local reference survived its scope")
		}
	})
}

func TestBarrierColdPathClearsTagAndStaleness(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true})
	node := v.DefineClass("Node", 1, 0)
	g := v.AddGlobal()
	_ = v.RunThread("main", func(th *Thread) {
		a := th.New(node)
		b := th.New(node)
		th.Store(a, 0, b)
		th.StoreGlobal(g, a)
		// Manually arm the barrier the way an OBSERVE collection would.
		v.heap.Get(a).SetRef(0, b.WithStale())
		v.heap.SetStale(v.heap.Get(b), 4)

		before := v.Stats().BarrierHits
		got := th.Load(a, 0)
		if got != b {
			t.Errorf("Load through armed barrier = %v", got)
		}
		if v.Stats().BarrierHits != before+1 {
			t.Error("cold path did not fire")
		}
		if v.heap.Get(a).Ref(0).IsStaleTagged() {
			t.Error("cold path must clear the tag")
		}
		if v.heap.Stale(v.heap.Get(b)) != 0 {
			t.Error("cold path must reset the target's stale counter")
		}
		// Second load: fast path only.
		before = v.Stats().BarrierHits
		th.Load(a, 0)
		if v.Stats().BarrierHits != before {
			t.Error("barrier fired twice for one tagging")
		}
	})
}

func TestBarrierUpdatesEdgeTableWhenObserving(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true, Policy: core.DefaultPolicy{}, Forced: false})
	node := v.DefineClass("Node", 1, 0)
	g := v.AddGlobal()
	_ = v.RunThread("main", func(th *Thread) {
		a := th.New(node)
		b := th.New(node)
		th.Store(a, 0, b)
		th.StoreGlobal(g, a)
		// Force the controller into OBSERVE by exceeding 50% fullness.
		filler := v.DefineClass("Filler", 0, 1<<19)
		th.New(filler)
		v.Collect()
		if v.State() != core.StateObserve {
			t.Fatalf("state = %v, want OBSERVE", v.State())
		}
		v.heap.Get(a).SetRef(0, b.WithStale())
		v.heap.SetStale(v.heap.Get(b), 5)
		th.Load(a, 0)
		if got := v.EdgeTable().MaxStaleUseFor(node, node); got != 5 {
			t.Errorf("maxStaleUse = %d, want 5", got)
		}
	})
}

func TestPoisonTrapRaisesInternalError(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true})
	node := v.DefineClass("Node", 1, 0)
	err := v.RunThread("main", func(th *Thread) {
		a := th.New(node)
		b := th.New(node)
		th.Store(a, 0, b)
		v.heap.Get(a).SetRef(0, b.WithPoison())
		th.Load(a, 0)
		t.Error("Load of a poisoned reference must not return")
	})
	var ie *vmerrors.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want InternalError", err)
	}
	if ie.SourceClass != "Node" {
		t.Fatalf("source class = %q", ie.SourceClass)
	}
	if v.Stats().PoisonTraps != 1 {
		t.Fatal("poison trap counter not bumped")
	}
}

func TestOOMWithoutPruning(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true, HeapLimit: 4096})
	blob := v.DefineClass("Blob", 0, 1024)
	g := v.AddGlobal()
	gi := 0
	err := v.RunThread("main", func(th *Thread) {
		chain := v.DefineClass("Chain", 2, 0)
		_ = chain
		for i := 0; ; i++ {
			r := th.New(blob)
			// Keep everything alive through globals.
			if gi == 0 {
				th.StoreGlobal(g, r)
				gi++
			} else {
				keep := th.New(v.DefineClass("Holder", 2, 0))
				th.Store(keep, 0, th.LoadGlobal(g))
				th.Store(keep, 1, r)
				th.StoreGlobal(g, keep)
			}
		}
	})
	if !vmerrors.IsOOM(err) {
		t.Fatalf("err = %v, want OutOfMemoryError", err)
	}
	var oom *vmerrors.OutOfMemoryError
	errors.As(err, &oom)
	if oom.HeapLimit != 4096 {
		t.Fatalf("OOM heap limit = %d", oom.HeapLimit)
	}
}

func TestFinalizersRunOnCollection(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true})
	node := v.DefineClass("Node", 0, 32)
	var finalized []string
	_ = v.RunThread("main", func(th *Thread) {
		th.Scope(func() {
			r := th.New(node)
			v.SetFinalizer(r, func(info FinalizerInfo) {
				finalized = append(finalized, info.Class)
			})
		})
	})
	v.Collect()
	if len(finalized) != 1 || finalized[0] != "Node" {
		t.Fatalf("finalized = %v", finalized)
	}
	if v.Stats().FinalizersRun != 1 {
		t.Fatal("finalizer counter wrong")
	}
	// Clearing a finalizer prevents it from running.
	_ = v.RunThread("main", func(th *Thread) {
		th.Scope(func() {
			r := th.New(node)
			v.SetFinalizer(r, func(FinalizerInfo) { t.Error("cleared finalizer ran") })
			v.SetFinalizer(r, nil)
		})
	})
	v.Collect()
}

func TestThreadStacksPersistUntilExit(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true})
	node := v.DefineClass("Node", 0, 0)
	leaked := v.NewThread("leaked")
	_ = v.RunThread("main", func(th *Thread) {
		f := leaked.PushFrame(1)
		f.Set(0, th.New(node))
	})
	v.Collect()
	if v.HeapStats().ObjectsUsed != 1 {
		t.Fatal("leaked thread's stack must pin its objects (the Mckoi leak)")
	}
	leaked.Exit()
	v.Collect()
	if v.HeapStats().ObjectsUsed != 0 {
		t.Fatal("exited thread's stack must stop being a root")
	}
	leaked.Exit() // idempotent
}

func TestRunThreadConvertsTrapsOnly(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true})
	defer func() {
		if recover() == nil {
			t.Fatal("non-VM panic must propagate out of RunThread")
		}
	}()
	_ = v.RunThread("main", func(th *Thread) { panic("app bug") })
}

func TestOptionValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pruning without barriers must be rejected")
		}
	}()
	New(Options{HeapLimit: 1 << 20, Policy: core.DefaultPolicy{}, EnableBarriers: false})
}

func TestSoftTriggerCollectsBeforeExhaustion(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true, HeapLimit: 1 << 20})
	blob := v.DefineClass("Blob", 0, 4096)
	_ = v.RunThread("main", func(th *Thread) {
		for i := 0; i < 400; i++ {
			th.Scope(func() { th.New(blob) }) // all garbage
		}
	})
	st := v.Stats()
	if st.Collections == 0 {
		t.Fatal("soft trigger never collected despite heavy churn")
	}
	if v.HeapStats().BytesUsed > v.HeapLimit()/2 {
		t.Fatal("garbage accumulated past the trigger")
	}
}

func TestSoftTriggerFormula(t *testing.T) {
	const limit = 1 << 20
	if got := softTrigger(0, limit); got != limit/4 {
		t.Fatalf("softTrigger(0) = %d, want %d", got, limit/4)
	}
	// Near-full: step floors at limit/32 and caps at the limit.
	if got := softTrigger(limit-100, limit); got != limit {
		t.Fatalf("softTrigger(near-full) = %d, want %d", got, limit)
	}
	mid := uint64(limit / 2)
	if got := softTrigger(mid, limit); got != mid+limit/8 {
		t.Fatalf("softTrigger(half) = %d", got)
	}
}

func TestPruningEndToEndSmall(t *testing.T) {
	// A minimal leak: a global chain of Holder -> Payload where payloads
	// are never read. Pruning must keep the program allocating forever
	// within a heap that the base configuration exhausts.
	run := func(policy core.Policy) error {
		opts := Options{EnableBarriers: true, HeapLimit: 256 << 10, GCWorkers: 1, Policy: policy}
		v := New(opts)
		holder := v.DefineClass("Holder", 2, 0)
		payload := v.DefineClass("Payload", 0, 2048)
		scratch := v.DefineClass("Scratch", 0, 64)
		g := v.AddGlobal()
		return v.RunThread("main", func(th *Thread) {
			for i := 0; i < 2000; i++ {
				th.Scope(func() {
					h := th.New(holder)
					p := th.New(payload)
					th.Store(h, 0, p)
					th.Store(h, 1, th.LoadGlobal(g))
					th.StoreGlobal(g, h)
					for j := 0; j < 4; j++ {
						th.New(scratch)
					}
				})
			}
		})
	}
	if err := run(nil); !vmerrors.IsOOM(err) {
		t.Fatalf("base run: err = %v, want OOM", err)
	}
	if err := run(core.DefaultPolicy{}); err != nil {
		t.Fatalf("pruning run died: %v", err)
	}
}

func TestVMString(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true, Policy: core.DefaultPolicy{}})
	s := v.String()
	for _, want := range []string{"pruning=default", "heap=1MB"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
