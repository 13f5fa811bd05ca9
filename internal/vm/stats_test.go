package vm

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leakpruning/internal/core"
	"leakpruning/internal/faultinject"
	"leakpruning/internal/obs"
)

// TestStatsHandshakeUnderLoad: the per-thread operation counters are plain
// words, so Stats may only read them with every thread at a safepoint. N
// goroutines issue a known number of Load / New / cold-barrier hits while
// another loops on Stats; under -race this is the evidence that the
// handshake orders the reads. Each reading must be monotone, include every
// operation that returned before Stats was called, never exceed what had
// been issued when it returned, and be exact after the join.
func TestStatsHandshakeUnderLoad(t *testing.T) {
	v := New(Options{HeapLimit: 64 << 20, EnableBarriers: true, GCWorkers: 2})
	node := v.DefineClass("Node", 1, 0)
	scratch := v.DefineClass("Scratch", 0, 64)

	const workers, rounds = 6, 300
	const loadsPerRound, coldPerRound, newsPerRound = 5, 2, 3
	// issued counts an operation before it starts, done after it returned.
	var issued, done struct{ loads, allocs, cold atomic.Uint64 }

	// The reader's first reading releases the workers, and the workers yield
	// once a round, so readings interleave with the load at GOMAXPROCS=1 too.
	reading := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-reading
			err := v.RunThread("worker", func(th *Thread) {
				issued.allocs.Add(2)
				a, tgt := th.New(node), th.New(node)
				done.allocs.Add(2)
				th.Store(a, 0, tgt)
				src := v.heap.Get(a)
				for r := 0; r < rounds; r++ {
					th.Scope(func() {
						for i := 0; i < loadsPerRound; i++ {
							issued.loads.Add(1)
							th.Load(a, 0)
							done.loads.Add(1)
						}
						for i := 0; i < coldPerRound; i++ {
							// Re-arm the slot the way a collection would.
							src.SetRef(0, tgt.WithStale())
							issued.loads.Add(1)
							issued.cold.Add(1)
							th.Load(a, 0)
							done.cold.Add(1)
							done.loads.Add(1)
						}
						for i := 0; i < newsPerRound; i++ {
							issued.allocs.Add(1)
							th.New(scratch)
							done.allocs.Add(1)
						}
					})
					runtime.Gosched()
				}
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}

	stop := make(chan struct{})
	readerDone := make(chan int)
	go func() {
		var prev Stats
		n := 0
		for ; ; n++ {
			select {
			case <-stop:
				readerDone <- n
				return
			default:
			}
			loLoads, loAllocs, loCold := done.loads.Load(), done.allocs.Load(), done.cold.Load()
			st := v.Stats()
			hiLoads, hiAllocs, hiCold := issued.loads.Load(), issued.allocs.Load(), issued.cold.Load()
			if st.Loads < prev.Loads || st.Allocations < prev.Allocations || st.BarrierHits < prev.BarrierHits {
				t.Errorf("reading %d went backwards: %d/%d/%d after %d/%d/%d", n,
					st.Loads, st.Allocations, st.BarrierHits, prev.Loads, prev.Allocations, prev.BarrierHits)
			}
			if st.Loads < loLoads || st.Allocations < loAllocs || st.BarrierHits < loCold {
				t.Errorf("reading %d misses finished operations: %d/%d/%d, finished before the call %d/%d/%d", n,
					st.Loads, st.Allocations, st.BarrierHits, loLoads, loAllocs, loCold)
			}
			if st.Loads > hiLoads || st.Allocations > hiAllocs || st.BarrierHits > hiCold {
				t.Errorf("reading %d exceeds what was issued: %d/%d/%d, issued %d/%d/%d", n,
					st.Loads, st.Allocations, st.BarrierHits, hiLoads, hiAllocs, hiCold)
			}
			prev = st
			if n == 0 {
				close(reading)
			}
			// A handshake parks every thread that tries to start an
			// operation; back-to-back handshakes on one P would leave the
			// workers no window to run in.
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(stop)
	if n := <-readerDone; n < 10 {
		t.Fatalf("only %d Stats readings were taken while %d workers ran %d rounds each", n, workers, rounds)
	}

	st := v.Stats()
	wantLoads := uint64(workers * rounds * (loadsPerRound + coldPerRound))
	wantCold := uint64(workers * rounds * coldPerRound)
	wantAllocs := uint64(workers * (2 + rounds*newsPerRound))
	if st.Loads != wantLoads || st.BarrierHits != wantCold || st.Allocations != wantAllocs {
		t.Fatalf("after the join: loads %d allocs %d cold hits %d, want %d / %d / %d",
			st.Loads, st.Allocations, st.BarrierHits, wantLoads, wantAllocs, wantCold)
	}
}

// TestStatsFromInsideThreadBody: Stats called between operations from
// inside a RunThread body (benchmark/batch.go does this) is a handshake the
// caller's own thread is already parked for — it must not deadlock and must
// return exactly the operations issued so far, counting a thread that was
// abandoned without Exit (the Mckoi shape) and several Threads driven from
// one goroutine.
func TestStatsFromInsideThreadBody(t *testing.T) {
	v := New(Options{HeapLimit: 4 << 20, EnableBarriers: true, GCWorkers: 1})
	node := v.DefineClass("Node", 1, 0)

	abandoned := v.NewThread("never-exits")
	abandoned.PushFrame(0)
	held := abandoned.New(node)
	for i := 0; i < 7; i++ {
		abandoned.Load(held, 0)
	}

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		err := v.RunThread("body", func(th *Thread) {
			other := v.NewThread("same-goroutine")
			defer other.Exit()
			other.PushFrame(0)
			a := th.New(node)
			b := other.New(node)
			for i := 1; i <= 50; i++ {
				th.Load(a, 0)
				other.Load(b, 0)
				st := v.Stats()
				if want := uint64(7 + 2*i); st.Loads != want {
					t.Errorf("after %d rounds Stats().Loads = %d, want %d", i, st.Loads, want)
				}
				if st.Allocations != 3 {
					t.Errorf("Stats().Allocations = %d, want 3", st.Allocations)
				}
			}
		})
		if err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("Stats from inside a RunThread body deadlocked")
	}
	if st := v.Stats(); st.Loads != 107 || st.Allocations != 3 {
		t.Fatalf("final Stats: loads %d allocs %d, want 107 / 3 (the abandoned thread's 7 loads included)",
			st.Loads, st.Allocations)
	}
}

// statsTraceRun runs a deterministic single-threaded leak workload with
// observability attached, optionally calling Stats after every iteration,
// and returns everything a Stats handshake could disturb if it were a pause.
func statsTraceRun(t *testing.T, callStats bool) (trace string, pauses int, stops uint64) {
	t.Helper()
	o := obs.New()
	v := New(Options{
		HeapLimit:      256 << 10,
		EnableBarriers: true,
		GCWorkers:      1,
		Policy:         core.DefaultPolicy{},
		Obs:            o,
		OnGC:           func(ev Event) { pauses += len(ev.Pauses) },
	})
	holder := v.DefineClass("Holder", 2, 0)
	payload := v.DefineClass("Payload", 0, 2048)
	g := v.AddGlobal()
	err := v.RunThread("leaker", func(th *Thread) {
		for i := 0; i < 600; i++ {
			th.Scope(func() {
				h := th.New(holder)
				th.Store(h, 0, th.New(payload))
				th.Store(h, 1, th.LoadGlobal(g))
				th.StoreGlobal(g, h)
			})
			if callStats {
				if st := v.Stats(); st.Allocations != uint64(2*(i+1)) {
					t.Fatalf("iteration %d: Stats().Allocations = %d, want %d", i, st.Allocations, 2*(i+1))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.Tracer().WriteTrace(&buf, true); err != nil {
		t.Fatal(err)
	}
	return buf.String(), pauses, v.obsStopNs.Count()
}

// TestStatsHandshakeIsNotAPause: the handshake stops threads the way a
// collection does, but it must leave no trace of itself — no
// lp_safepoint_stop_ns sample, no stw.stop span, no Event.Pauses entry — so a
// run that polls Stats produces the same normalized trace as one that never
// asks.
func TestStatsHandshakeIsNotAPause(t *testing.T) {
	quiet, quietPauses, quietStops := statsTraceRun(t, false)
	polled, polledPauses, polledStops := statsTraceRun(t, true)
	if quietStops == 0 || quietPauses == 0 {
		t.Fatalf("the workload never collected (stops %d, pauses %d): nothing to compare", quietStops, quietPauses)
	}
	if polledStops != quietStops {
		t.Errorf("lp_safepoint_stop_ns has %d samples with Stats polled, %d without", polledStops, quietStops)
	}
	if polledPauses != quietPauses {
		t.Errorf("Event.Pauses entries: %d with Stats polled, %d without", polledPauses, quietPauses)
	}
	if polled != quiet {
		t.Errorf("normalized traces differ when Stats is polled:\n%s", firstDiff(quiet, polled))
	}
}

// TestStatsHandshakeInjectsNothing: fault injection is keyed on each
// point's draw sequence, so a handshake that consulted the SafepointStall
// point would shift every later collection's decision. Stats must draw
// nothing.
func TestStatsHandshakeInjectsNothing(t *testing.T) {
	inj := faultinject.New(1)
	inj.Arm(faultinject.SafepointStall, 1)
	v := New(Options{HeapLimit: 1 << 20, GCWorkers: 1, FaultInjector: inj})
	cls := v.DefineClass("C", 1, 0)
	th := v.NewThread("t")
	defer th.Exit()
	th.PushFrame(0)
	th.Load(th.New(cls), 0)
	for i := 0; i < 100; i++ {
		if st := v.Stats(); st.Loads != 1 || st.Allocations != 1 || st.Collections != 0 {
			t.Fatalf("Stats %d: %+v", i, st)
		}
	}
	if n := inj.Draws(faultinject.SafepointStall); n != 0 {
		t.Fatalf("100 Stats calls drew %d SafepointStall decisions, want 0", n)
	}
	v.Collect()
	if n := inj.Draws(faultinject.SafepointStall); n == 0 {
		t.Fatal("a collection drew no SafepointStall decision: the check above is vacuous")
	}
}
