package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leakpruning/internal/core"
	"leakpruning/internal/gc"
	"leakpruning/internal/heap"
	"leakpruning/internal/trace"
	"leakpruning/internal/vm"
	"leakpruning/internal/vmerrors"
)

const (
	// EndReplayDiverged: a replay clone hit a non-VM panic — the trace no
	// longer matches the heap it is being replayed against.
	EndReplayDiverged EndReason = "replay-diverged"
	// EndTraceCorrupt: the trace body failed to decode mid-replay.
	EndTraceCorrupt EndReason = "trace-corrupt"
)

// ReplayConfig parameterizes the deterministic re-execution of a recorded
// trace. The zero value replays at full speed, ×1, under the recorded
// options.
type ReplayConfig struct {
	// Trace is the parsed recording to re-execute.
	Trace *trace.Trace
	// Policy overrides the recorded pruning policy ("" = recorded). This
	// is the point of the trace substrate: one recording, validated
	// against every policy.
	Policy string
	// MarkMode overrides the recorded mark mode ("" = recorded).
	MarkMode string
	// Multiply replays N skewed clones of the recorded interleaving
	// (0 or 1 = one). Each clone gets a disjoint block of globals and its
	// own object-identity map; clones share the one policy and one heap of
	// N× the recorded limit (the paper's "heap ≈ 2× need" methodology
	// scales with the cloned load), which is how heavy traffic is simulated
	// on one CPU.
	Multiply int
	// Speed paces iteration boundaries against the recorded timestamps:
	// 1 = recorded speed, 2 = twice as fast, 0 = as fast as possible.
	Speed float64
	// Stagger delays clone k's start by k×Stagger, skewing the clones so
	// their allocation phases do not align (0 = no stagger).
	Stagger time.Duration
	// AuditEveryGC mirrors Config.AuditEveryGC.
	AuditEveryGC bool
}

// CloneResult is one replay clone's outcome, in Result's vocabulary.
type CloneResult struct {
	Clone      int
	Iterations int
	Reason     EndReason
	Err        error
	// Skipped counts events dropped because their object could not be
	// resolved — 0 for single-mutator traces; can be nonzero when a
	// multi-thread trace's cross-thread timing is coarsened to the
	// stop-the-world drain windows.
	Skipped int
}

// ReplayResult aggregates a replay run.
type ReplayResult struct {
	Program   string
	Policy    string
	HeapLimit uint64
	Multiply  int

	Clones     []CloneResult
	GCSamples  []GCSample
	Duration   time.Duration
	VMStats    vm.Stats
	Prunes     []core.PruneEvent
	FinalState core.State
	// AuditReport is the final full invariant audit (always run).
	AuditReport []string
}

// Capped reports whether every clone ended healthy (at the end of the
// trace).
func (r ReplayResult) Capped() bool {
	for _, c := range r.Clones {
		if !(Result{Reason: c.Reason}).Capped() {
			return false
		}
	}
	return true
}

// Replay re-executes a recorded trace. Determinism argument, ×1: the
// recorded op sequence is replayed in file order, which for a
// single-mutator recording is the exact program order; collections are
// triggered by allocated bytes (not wall clock), object IDs recycle LIFO
// per shard, and the controller's decisions are pure functions of heap
// state — so a ×1 replay under the recorded options reproduces every
// cycle's live-set hash, candidate count, and pruned count byte for byte.
// Under a different policy/mark mode the op stream is identical but the
// GC's decisions (legitimately) differ.
func Replay(cfg ReplayConfig) (ReplayResult, error) {
	tr := cfg.Trace
	if tr == nil {
		return ReplayResult{}, fmt.Errorf("harness: replay requires a trace")
	}
	mult := cfg.Multiply
	if mult <= 0 {
		mult = 1
	}
	m := tr.Meta
	if cfg.Policy != "" {
		m.Policy = cfg.Policy
	}
	if cfg.MarkMode != "" {
		m.MarkMode = cfg.MarkMode
	}
	if m.Policy = policyLabel(m.Policy); m.Policy != "base" {
		// A pinned controller state and compiled-out barriers are both
		// mutually exclusive with a policy; replaying such a recording
		// under a real policy is a deliberate upgrade, so both are dropped.
		m.ForceState = ""
		m.Flags &^= trace.FlagBarriersOff
	}
	if m.HeapLimit *= uint64(mult); m.HeapLimit == 0 {
		return ReplayResult{}, fmt.Errorf("harness: trace carries no heap limit")
	}

	res := ReplayResult{
		Program:   m.Program,
		Policy:    m.Policy,
		HeapLimit: m.HeapLimit,
		Multiply:  mult,
	}

	var smp sampler
	machine, err := newVM(m, vm.Options{AuditEveryGC: cfg.AuditEveryGC, OnGC: smp.onGC})
	if err != nil {
		return ReplayResult{}, err
	}

	// Rebuild the recorded class table; IDs must come out identical or the
	// trace's class references would dangle.
	for i, c := range tr.Classes {
		id := machine.DefineClass(c.Name, c.RefSlots, c.ScalarBytes)
		if int(id) != i+1 {
			return ReplayResult{}, fmt.Errorf("harness: replay class %q got ID %d, want %d", c.Name, id, i+1)
		}
	}
	// Disjoint globals per clone: clone k's recorded global g lives at
	// k×G + g, so the clones' heaps share nothing through roots.
	for i := 0; i < tr.Globals*mult; i++ {
		machine.AddGlobal()
	}

	start := time.Now()
	res.Clones = make([]CloneResult, mult)
	var wg sync.WaitGroup
	for k := 0; k < mult; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if cfg.Stagger > 0 && k > 0 {
				time.Sleep(time.Duration(k) * cfg.Stagger)
			}
			res.Clones[k] = replayClone(machine, tr, k, cfg, &smp.iter, start)
		}(k)
	}
	wg.Wait()
	res.Duration = time.Since(start)
	res.GCSamples = smp.samples
	res.VMStats = machine.Stats()
	res.Prunes = machine.PruneEvents()
	res.FinalState = machine.State()
	res.AuditReport = machine.Verify()
	return res, nil
}

// replayClone re-executes the full trace once as clone k.
func replayClone(machine *vm.VM, tr *trace.Trace, k int, cfg ReplayConfig, iterNow *atomic.Int64, start time.Time) (cr CloneResult) {
	cr.Clone = k
	cr.Reason = EndCompleted

	threads := make(map[int]*vm.Thread)
	frames := make(map[int][]*vm.Frame)
	idmap := make(map[uint64]heap.Ref)
	defer func() {
		if r := recover(); r != nil {
			err, ok := func() (e error, ok bool) {
				defer func() { recover() }() // Recover re-panics foreign values
				e, ok = vmerrors.Recover(r)
				return
			}()
			if ok {
				cr.Err = err
				switch {
				case vmerrors.IsInternal(err):
					cr.Reason = EndPoisonTrap
				case vmerrors.IsOOM(err):
					cr.Reason = EndOOM
				case vmerrors.IsOffload(err):
					cr.Reason = EndOffloadFault
				}
			} else {
				cr.Err = fmt.Errorf("harness: replay clone %d diverged: %v", k, r)
				cr.Reason = EndReplayDiverged
			}
		}
		for _, th := range threads {
			th.Exit()
		}
	}()

	lookup := func(id uint64) (heap.Ref, bool) {
		r, ok := idmap[id]
		return r, ok
	}
	valRef := func(id uint64) (heap.Ref, bool) {
		if id == 0 {
			return heap.Null, true
		}
		return lookup(id)
	}
	thread := func(stream int) *vm.Thread {
		th := threads[stream]
		if th == nil {
			th = machine.NewThread(fmt.Sprintf("c%d/%s", k, tr.Threads[stream-1]))
			threads[stream] = th
		}
		return th
	}

	speed := cfg.Speed
	var paced time.Duration

	it := tr.Iter()
	var ev trace.Event
	for {
		ok, err := it.Next(&ev)
		if err != nil {
			cr.Err = err
			cr.Reason = EndTraceCorrupt
			return cr
		}
		if !ok {
			return cr
		}
		if ev.Stream == 0 {
			continue // collector events are the verifier's oracle, not ops
		}
		switch ev.Kind {
		case trace.EvIter:
			cr.Iterations = ev.Arg + 1
			if n := int64(ev.Arg); n > iterNow.Load() {
				iterNow.Store(n)
			}
			if speed > 0 {
				paced += time.Duration(float64(ev.DT) / speed)
				if lag := paced - time.Since(start); lag > 0 {
					time.Sleep(lag)
				}
			} else {
				// Full speed: still yield at iteration boundaries so the
				// clones interleave at the recorded run's granularity.
				runtime.Gosched()
			}
		case trace.EvAlloc, trace.EvAllocShaped:
			th := thread(ev.Stream)
			ref := th.New(heap.ClassID(ev.Class), shapeOpts(&ev)...)
			idmap[ev.Obj] = ref
		case trace.EvAllocFail, trace.EvAllocFailShaped:
			// The allocation that exhausted the recorded run. Re-attempt it:
			// under the recorded policy it reproduces the OOM (or trap-free
			// prune tail); under a better policy it simply succeeds and the
			// object is dropped at the next scope pop.
			th := thread(ev.Stream)
			th.New(heap.ClassID(ev.Class), shapeOpts(&ev)...)
		case trace.EvLoad:
			ref, ok := lookup(ev.Obj)
			if !ok {
				cr.Skipped++
				continue
			}
			th := thread(ev.Stream)
			th.Load(ref, ev.Slot)
		case trace.EvStore:
			ref, ok := lookup(ev.Obj)
			val, vok := valRef(ev.Val)
			if !ok || !vok {
				cr.Skipped++
				continue
			}
			th := thread(ev.Stream)
			th.Store(ref, ev.Slot, val)
		case trace.EvLoadGlobal:
			th := thread(ev.Stream)
			th.LoadGlobal(k*tr.Globals + ev.Arg)
		case trace.EvStoreGlobal:
			val, vok := valRef(ev.Val)
			if !vok {
				cr.Skipped++
				continue
			}
			th := thread(ev.Stream)
			th.StoreGlobal(k*tr.Globals+ev.Arg, val)
		case trace.EvPush:
			th := thread(ev.Stream)
			frames[ev.Stream] = append(frames[ev.Stream], th.PushFrame(ev.Arg))
		case trace.EvPop:
			fs := frames[ev.Stream]
			if len(fs) == 0 {
				cr.Skipped++
				continue
			}
			thread(ev.Stream).PopFrame()
			frames[ev.Stream] = fs[:len(fs)-1]
		case trace.EvFrameSet:
			fs := frames[ev.Stream]
			if ev.Arg >= len(fs) {
				cr.Skipped++
				continue
			}
			val, vok := valRef(ev.Val)
			if !vok {
				cr.Skipped++
				continue
			}
			fs[len(fs)-1-ev.Arg].Set(ev.Slot, val)
		case trace.EvThreadEnd:
			if th := threads[ev.Stream]; th != nil {
				th.Exit()
				delete(threads, ev.Stream)
				delete(frames, ev.Stream)
			}
		}
	}
}

// shapeOpts converts a shaped alloc event's override into alloc options.
func shapeOpts(ev *trace.Event) []heap.AllocOption {
	if ev.RefSlots < 0 && ev.ScalarBytes < 0 {
		return nil
	}
	return []heap.AllocOption{heap.WithRefSlots(ev.RefSlots), heap.WithScalarBytes(ev.ScalarBytes)}
}

// CycleMismatchError reports the first divergence between a recorded
// trace's GC cycles and a replay's.
type CycleMismatchError struct {
	Cycle int
	Field string
	Want  uint64
	Got   uint64
}

func (e *CycleMismatchError) Error() string {
	return fmt.Sprintf("harness: replay cycle %d: %s = %d, recorded %d", e.Cycle, e.Field, e.Got, e.Want)
}

// CompareCycles checks a ×1 replay's GC samples against the recorded
// cycles: per cycle, the mode, controller state, candidate count, pruned
// count, and live-set hash must match exactly (Degraded and timing are
// excluded — a degraded cycle is byte-identical by construction, and time
// is not part of the heap state). Returns nil when every recorded cycle
// matches.
func CompareCycles(tr *trace.Trace, samples []GCSample) error {
	st, err := tr.Stats()
	if err != nil {
		return err
	}
	recorded := st.Cycles
	if len(samples) != len(recorded) {
		return fmt.Errorf("harness: replay ran %d GC cycles, recorded %d", len(samples), len(recorded))
	}
	for i, rc := range recorded {
		s := samples[i]
		if got, want := s.Mode, gc.Mode(rc.Mode).String(); got != want {
			return fmt.Errorf("harness: replay cycle %d: mode %q, recorded %q", i, got, want)
		}
		if got, want := s.State, core.State(rc.State); got != want {
			return fmt.Errorf("harness: replay cycle %d: state %v, recorded %v", i, got, want)
		}
		if uint64(s.Candidates) != uint64(rc.Candidates) {
			return &CycleMismatchError{Cycle: i, Field: "candidates", Want: uint64(rc.Candidates), Got: uint64(s.Candidates)}
		}
		if uint64(s.Pruned) != uint64(rc.Pruned) {
			return &CycleMismatchError{Cycle: i, Field: "pruned", Want: uint64(rc.Pruned), Got: uint64(s.Pruned)}
		}
		if s.LiveHash != rc.LiveHash {
			return &CycleMismatchError{Cycle: i, Field: "live-hash", Want: rc.LiveHash, Got: s.LiveHash}
		}
	}
	return nil
}
