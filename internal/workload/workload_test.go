package workload

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"leakpruning/internal/core"
	"leakpruning/internal/vm"
)

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 20 {
		t.Fatalf("expected the ten leaks plus the overhead suite, got %d programs", len(names))
	}
	leaks := LeakNames()
	if len(leaks) != 10 {
		t.Fatalf("Table 1 has ten leaks, got %d: %v", len(leaks), leaks)
	}
	for _, n := range names {
		p, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != n {
			t.Fatalf("program %q reports name %q", n, p.Name())
		}
		if p.Description() == "" {
			t.Fatalf("program %q has no description", n)
		}
		if p.DefaultHeap() == 0 {
			t.Fatalf("program %q has no default heap", n)
		}
	}
	if _, err := New("no-such-program"); err == nil {
		t.Fatal("unknown program must error")
	}
}

func TestMicroBenchNamesMatchFigure6Suite(t *testing.T) {
	names := MicroBenchNames()
	if len(names) != 12 {
		t.Fatalf("suite size = %d", len(names))
	}
	for _, n := range names {
		p, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		s, ok := p.(Sizer)
		if !ok {
			t.Fatalf("%s does not expose MinHeap", n)
		}
		if s.MinHeap() == 0 || p.DefaultHeap() < s.MinHeap() {
			t.Fatalf("%s heap sizing inconsistent (min %d, default %d)", n, s.MinHeap(), p.DefaultHeap())
		}
	}
}

// TestEveryProgramRunsInAmpleHeap runs each program for a handful of
// iterations in a heap far larger than it needs: no program may fail or
// trigger pruning machinery when memory is plentiful.
func TestEveryProgramRunsInAmpleHeap(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			prog, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			v := vm.New(vm.Options{
				HeapLimit:      prog.DefaultHeap() * 8,
				EnableBarriers: true,
				GCWorkers:      2,
			})
			err = v.RunThread("main", func(th *vm.Thread) {
				th.Scope(func() { prog.Setup(th) })
				for i := 0; i < 5; i++ {
					th.Scope(func() { prog.Iterate(th, i) })
				}
			})
			if err != nil {
				t.Fatalf("%s failed in an ample heap: %v", name, err)
			}
			if v.HeapStats().ObjectsUsed == 0 {
				t.Fatalf("%s allocated nothing", name)
			}
		})
	}
}

// TestIterateUnderStatsPolling runs every program for a few hundred
// iterations while another goroutine polls v.Stats(), a stop-the-world
// handshake, back to back. An Iterate that runs in a held region
// (vm.Thread.Region) and breaks its contract — blocks, calls a VM-level
// method, drives another Thread — deadlocks here instead of in a production
// run. Handshakes are not pauses, so the polled run must count exactly the
// loads, allocations and collections an unpolled one does.
func TestIterateUnderStatsPolling(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 100
	}
	run := func(name string, poll bool) (vm.Stats, error) {
		prog, err := New(name)
		if err != nil {
			return vm.Stats{}, err
		}
		v := vm.New(vm.Options{
			HeapLimit:      prog.DefaultHeap(),
			Policy:         core.DefaultPolicy{},
			EnableBarriers: true,
			GCWorkers:      1,
		})
		stop := make(chan struct{})
		var poller sync.WaitGroup
		if poll {
			// The first handshake releases the run, so the rest overlap it.
			first := make(chan struct{})
			poller.Add(1)
			go func() {
				defer poller.Done()
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					v.Stats()
					if n == 0 {
						close(first)
					}
					runtime.Gosched()
				}
			}()
			<-first
		}
		err = v.RunThread("main", func(th *vm.Thread) {
			th.Scope(func() { prog.Setup(th) })
			for i := 0; i < iters; i++ {
				th.Scope(func() { prog.Iterate(th, i) })
			}
		})
		close(stop)
		poller.Wait()
		return v.Stats(), err
	}
	for _, name := range Names() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			want, wantErr := run(name, false)
			got, err := run(name, true)
			if (err == nil) != (wantErr == nil) {
				t.Errorf("%s: polled run ended with %v, unpolled with %v", name, err, wantErr)
			}
			if got.Loads != want.Loads || got.Allocations != want.Allocations || got.Collections != want.Collections {
				t.Errorf("%s: polled run counted %d loads / %d allocations / %d collections, unpolled %d / %d / %d",
					name, got.Loads, got.Allocations, got.Collections, want.Loads, want.Allocations, want.Collections)
			}
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("%s deadlocked under Stats polling: its Iterate breaks the Region contract", name)
		}
	}
}

func TestDelaunayCompletes(t *testing.T) {
	prog, err := New("delaunay")
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(vm.Options{HeapLimit: prog.DefaultHeap(), EnableBarriers: true, GCWorkers: 1})
	completed := false
	err = v.RunThread("main", func(th *vm.Thread) {
		th.Scope(func() { prog.Setup(th) })
		for i := 0; i < 100000 && !completed; i++ {
			th.Scope(func() { completed = prog.Iterate(th, i) })
		}
	})
	if err != nil {
		t.Fatalf("delaunay died: %v", err)
	}
	if !completed {
		t.Fatal("delaunay must finish naturally (short-running, §6)")
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := newRNG(7), newRNG(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	if newRNG(0).next() == 0 {
		t.Fatal("zero seed must still produce output")
	}
	r := newRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.intn(10); v < 0 || v >= 10 {
			t.Fatalf("intn out of range: %d", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("intn(0) must panic")
		}
	}()
	newRNG(1).intn(0)
}
