// Package harness drives workload programs on the simulated runtime and
// records everything the paper's evaluation reports: iterations executed
// before failure (Tables 1–2), reachable memory after every full-heap
// collection (Figures 1 and 9), per-iteration times (Figures 8, 10, 11),
// pruned edge types, and GC/barrier overhead counters.
package harness

import (
	"errors"
	"fmt"
	"time"

	"leakpruning/internal/core"
	"leakpruning/internal/faultinject"
	"leakpruning/internal/heap"
	"leakpruning/internal/obs"
	"leakpruning/internal/offload"
	"leakpruning/internal/trace"
	"leakpruning/internal/vm"
	"leakpruning/internal/vmerrors"
	"leakpruning/internal/workload"
)

// EndReason says why a run stopped.
type EndReason string

const (
	// EndOOM: the program exhausted memory (an OutOfMemoryError was thrown).
	EndOOM EndReason = "out-of-memory"
	// EndPoisonTrap: the program accessed a pruned reference (InternalError).
	EndPoisonTrap EndReason = "pruned-access"
	// EndIterCap: the run reached the iteration cap still healthy (the
	// analogue of the paper's ">24 hours" rows).
	EndIterCap EndReason = "iteration-cap"
	// EndTimeCap: the run reached the wall-clock budget still healthy.
	EndTimeCap EndReason = "time-cap"
	// EndCompleted: the program finished naturally (Delaunay).
	EndCompleted EndReason = "completed"
	// EndOffloadFault: a melt run's simulated disk failed a fault-in read
	// past the retry budget (only reachable with fault injection armed).
	EndOffloadFault EndReason = "offload-io-failure"
)

// GCSample is one point of the reachable-memory series: taken at the end of
// a full-heap collection, as in Figure 1.
type GCSample struct {
	GCIndex   uint64
	Iteration int
	BytesLive uint64
	State     core.State
	Mode      string
	GCTime    time.Duration
	// LiveHash is the post-cycle live-set fingerprint (Config.HashLiveSet
	// only; 0 otherwise). Candidates, Pruned, and Degraded carry the
	// cycle's SELECT/PRUNE decisions so equivalence checks can compare a
	// concurrent-mark run against its STW control cycle by cycle.
	LiveHash   uint64
	Candidates int
	Pruned     int
	Degraded   bool
}

// Config parameterizes one run.
type Config struct {
	// Program names the workload (see workload.Names).
	Program string
	// Policy is the pruning policy name: "off", "default", "most-stale",
	// "indiv-refs", "decay", or "melt" (the disk-offloading baseline, with
	// a simulated disk of offload.DefaultDiskFactor x the heap limit).
	Policy string
	// HeapLimit overrides the program's default heap (0 = default).
	HeapLimit uint64
	// MaxIters caps the run (0 = DefaultMaxIters).
	MaxIters int
	// MaxDuration caps the run's wall-clock time (0 = no cap).
	MaxDuration time.Duration
	// FullHeapOnly selects the paper's option (1) prune trigger.
	FullHeapOnly bool
	// BarriersOff disables read barriers entirely — the Figure 6 baseline.
	// Only valid with Policy "off".
	BarriersOff bool
	// ForceState pins the controller state for overhead measurement:
	// "" (off), "observe", or "select" (Figures 6–7).
	ForceState string
	// BarrierVariant selects the barrier code shape: "" or "conditional"
	// (default), or "unconditional".
	BarrierVariant string
	// GCWorkers sets tracer parallelism (0 = default).
	GCWorkers int
	// RecordIterTimes keeps the per-iteration duration series.
	RecordIterTimes bool
	// Injector arms deterministic fault injection for the run (nil = off).
	Injector *faultinject.Injector
	// AuditEveryGC runs the full heap invariant audit inside every
	// collection's stop-the-world section (the fault matrix's oracle).
	AuditEveryGC bool
	// MarkMode selects the closure strategy for every cycle mode: "" or
	// "stw" (default), or "concurrent" (mostly-concurrent marking behind
	// the SATB deletion barrier, including SELECT/PRUNE cycles against a
	// frozen staleness snapshot).
	MarkMode string
	// HashLiveSet computes a live-set fingerprint inside every full
	// collection's final pause and records it in GCSample.LiveHash — the
	// cross-run equivalence probe the fault matrix's hash-checked rows and
	// replay key on.
	HashLiveSet bool
	// Obs attaches the observability layer (metrics + trace-event tracer)
	// to the run's VM; after Run returns, obs.WriteArtifacts exports the
	// trace and metrics snapshot. Nil disables it.
	Obs *obs.Obs
	// Record attaches an allocation-trace recorder: the run's mutator
	// operations, GC cycles, and iteration boundaries are recorded so the
	// run can be replayed (see Replay). Nil disables recording.
	Record *trace.Recorder
	// Verbose streams prune/OOM events to fn as they happen.
	Verbose func(format string, args ...any)
}

// DefaultMaxIters bounds runs that would otherwise go on forever (the
// paper's 24-hour terminations).
const DefaultMaxIters = 20000

// Result is everything one run measured.
type Result struct {
	Program    string
	Policy     string
	HeapLimit  uint64
	Iterations int
	Reason     EndReason
	Err        error

	Duration   time.Duration
	VMStats    vm.Stats
	Disk       heap.DiskStats
	Offload    offload.Stats
	GCSamples  []GCSample
	IterTimes  []time.Duration
	Prunes     []core.PruneEvent
	EdgeTypes  int
	FinalState core.State
	// AuditReport is the last invariant audit's violation list (nil if no
	// audit ran; empty means the final audit was clean).
	AuditReport []string
	// OOMWarning is the out-of-memory warning as first issued (§3.2: deferred
	// while pruning keeps the program alive); "" if memory never ran short.
	OOMWarning string
	// VM is the finished machine, for the views a diagnosis reads off it:
	// the edge table, the live-heap histogram, a heap dump.
	VM *vm.VM
}

// Ratio returns this run's iterations relative to base's (Table 1/2's
// "runs N× longer").
func (r Result) Ratio(base Result) float64 {
	if base.Iterations == 0 {
		return 0
	}
	return float64(r.Iterations) / float64(base.Iterations)
}

// Capped reports whether the run ended healthy at a cap rather than dying.
func (r Result) Capped() bool {
	return r.Reason == EndIterCap || r.Reason == EndTimeCap || r.Reason == EndCompleted
}

// Run executes one configured run to completion.
func Run(cfg Config) (Result, error) {
	prog, err := workload.New(cfg.Program)
	if err != nil {
		return Result{}, err
	}
	m := cfg.meta(prog)
	maxIters := cfg.MaxIters
	if maxIters == 0 {
		maxIters = DefaultMaxIters
	}
	verbose := cfg.Verbose
	if verbose == nil {
		verbose = func(string, ...any) {}
	}

	res := Result{
		Program:   m.Program,
		Policy:    m.Policy,
		HeapLimit: m.HeapLimit,
	}
	if cfg.Record != nil {
		cfg.Record.SetMeta(m)
	}
	var smp sampler
	machine, err := newVM(m, vm.Options{
		GCWorkers:     cfg.GCWorkers,
		FaultInjector: cfg.Injector,
		AuditEveryGC:  cfg.AuditEveryGC,
		Obs:           cfg.Obs,
		TraceRecorder: cfg.Record,
		OnGC:          smp.onGC,
		OnPrune: func(ev core.PruneEvent) {
			verbose("  [gc %d, iter %d] pruned %d refs: %s (freed %d bytes)",
				ev.GCIndex, smp.iter.Load(), ev.PrunedRefs, ev.Selection, ev.BytesFreed)
		},
		OnOOM: func(oom *vmerrors.OutOfMemoryError) {
			res.OOMWarning = oom.Error()
			verbose("  [iter %d] out-of-memory warning recorded: %v", smp.iter.Load(), oom)
		},
	})
	if err != nil {
		return Result{}, err
	}

	start := time.Now()
	deadline := time.Time{}
	if cfg.MaxDuration > 0 {
		deadline = start.Add(cfg.MaxDuration)
	}

	runErr := machine.RunThread("main", func(t *vm.Thread) {
		t.Scope(func() { prog.Setup(t) })
		for iter := 0; iter < maxIters; iter++ {
			smp.iter.Store(int64(iter))
			t.MarkIteration(iter)
			t0 := time.Now()
			done := false
			// Each iteration runs in its own scope so the local references
			// it accumulates stop being roots at the iteration boundary.
			t.Scope(func() { done = prog.Iterate(t, iter) })
			if cfg.RecordIterTimes {
				res.IterTimes = append(res.IterTimes, time.Since(t0))
			}
			res.Iterations = iter + 1
			if done {
				res.Reason = EndCompleted
				return
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				res.Reason = EndTimeCap
				return
			}
		}
		res.Reason = EndIterCap
	})

	res.Duration = time.Since(start)
	res.GCSamples = smp.samples
	res.Err = runErr
	if runErr != nil {
		var ie *vmerrors.InternalError
		switch {
		case errors.As(runErr, &ie):
			res.Reason = EndPoisonTrap
		case vmerrors.IsOOM(runErr):
			res.Reason = EndOOM
		case vmerrors.IsOffload(runErr):
			res.Reason = EndOffloadFault
		default:
			return res, fmt.Errorf("harness: unexpected error from %s: %w", prog.Name(), runErr)
		}
	}
	res.VMStats = machine.Stats()
	res.Disk = machine.Disk()
	res.Offload = machine.OffloadStats()
	res.Prunes = machine.PruneEvents()
	res.EdgeTypes = machine.EdgeTable().Len()
	res.FinalState = machine.State()
	res.AuditReport = machine.LastAudit()
	res.VM = machine
	return res, nil
}

// DiskExhausted reports whether a melt run's disk budget was the binding
// constraint when it ended.
func (r Result) DiskExhausted() bool {
	return r.Offload.DiskFullHits > 0
}

// Describe renders a one-line summary of the run.
func (r Result) Describe() string {
	extra := ""
	if r.Err != nil {
		extra = fmt.Sprintf(" (%v)", r.Err)
	}
	return fmt.Sprintf("%s/%s: %d iterations, %s%s, %d prunes over %d edge types, %v",
		r.Program, r.Policy, r.Iterations, r.Reason, extra, len(r.Prunes), r.EdgeTypes, r.Duration.Round(time.Millisecond))
}
