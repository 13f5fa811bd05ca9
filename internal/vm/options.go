// Package vm is the managed-runtime facade: it ties the simulated heap, the
// parallel collector, and the leak-pruning controller together behind the
// mutator API that programs (workloads, examples) are written against —
// class definition, allocation, threads with stack-frame roots, globals,
// and barrier-checked reference loads.
package vm

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"time"

	"leakpruning/internal/core"
	"leakpruning/internal/faultinject"
	"leakpruning/internal/obs"
	"leakpruning/internal/offload"
	"leakpruning/internal/trace"
	"leakpruning/internal/vmerrors"
)

// BarrierVariant selects the read-barrier code shape. The paper measures
// barrier overhead on two microarchitectures (Pentium 4 and Core 2,
// Figure 6); here the two "platforms" are two implementations of the same
// semantics with different fast-path costs.
type BarrierVariant int

const (
	// BarrierConditional is the paper's barrier: a single conditional test
	// on the loaded word with the body out of line (the default).
	BarrierConditional BarrierVariant = iota
	// BarrierUnconditional always executes the mask-and-check sequence,
	// trading the branch for straight-line work.
	BarrierUnconditional
)

// String names the variant.
func (b BarrierVariant) String() string {
	if b == BarrierUnconditional {
		return "unconditional"
	}
	return "conditional"
}

// opMode is the VM's mode word (VM.mode). Its low bits are the read-barrier
// shape Load runs inline; opsOutOfLine sends every Load and Store, and every
// object lookup, through the out-of-line slow path first: the offload
// baseline must check residency, and a recording VM appends each op to the
// thread's trace stream.
type opMode uint32

const (
	// barriersOff: no barrier test (EnableBarriers false, or LazyBarriers
	// before OBSERVE).
	barriersOff opMode = iota
	barriersConditional
	barriersUnconditional

	opsOutOfLine opMode = 4
)

// barrierShape is the mode word's barrier shape for o.Barrier.
func (o Options) barrierShape() opMode {
	if o.Barrier == BarrierUnconditional {
		return barriersUnconditional
	}
	return barriersConditional
}

// MarkMode selects how ModeNormal collections compute the in-use closure.
type MarkMode int

const (
	// MarkSTW (the default) runs the whole closure inside one
	// stop-the-world pause — the original behavior, kept as the equivalence
	// oracle for the concurrent path.
	MarkSTW MarkMode = iota
	// MarkConcurrent splits every cycle mode into short pauses: a root
	// snapshot, a mutator-concurrent mark (SATB deletion barrier on Store;
	// the snapshot pause marks the free slots, so births write no mark),
	// a brief final remark, and a background sweep.
	// SELECT and PRUNE cycles get the one consistent cut the paper's
	// candidate selection and reference poisoning require (§3.2, §4.2)
	// from a staleness snapshot frozen in the first pause: predicates
	// evaluate against it, decisions taken while mutators run are
	// re-verified in the final remark, and any edge a mutator invalidated
	// in the window is demoted rather than mis-selected (see DESIGN.md,
	// "Concurrent SELECT and PRUNE").
	MarkConcurrent
)

// String names the mark mode.
func (m MarkMode) String() string {
	if m == MarkConcurrent {
		return "concurrent"
	}
	return "stw"
}

// NoPolicyName reports whether a policy name selects the unmodified VM:
// "", "off", "base" or "none".
func NoPolicyName(name string) bool {
	switch name {
	case "", "off", "base", "none":
		return true
	}
	return false
}

// SetModes sets the pruning and mark modes from the names the harness, the
// lp CLI and leakd's tenant configs share. A policy is a no-policy name
// (NoPolicyName), "melt" — the disk-offload baseline with a disk of
// offload.DefaultDiskFactor × HeapLimit bytes, so set HeapLimit first — or
// a core.PolicyByName name. A mark mode is "" or "stw", or "concurrent".
// The names decide Policy, OffloadDisk and MarkMode outright; whether the
// result is a valid configuration is ValidateOptions's question.
func (o *Options) SetModes(policy, markMode string) error {
	o.Policy, o.OffloadDisk, o.MarkMode = nil, 0, MarkSTW
	switch {
	case NoPolicyName(policy):
	case policy == "melt":
		o.OffloadDisk = offload.DefaultDiskFactor * o.HeapLimit
	default:
		p, err := core.PolicyByName(policy)
		if err != nil {
			return err
		}
		o.Policy = p
	}
	switch markMode {
	case "", "stw":
	case "concurrent":
		o.MarkMode = MarkConcurrent
	default:
		return &OptionError{Option: "MarkMode", Reason: fmt.Sprintf("unknown mode %q", markMode)}
	}
	return nil
}

// Options configures a VM. The zero value is usable after applying
// defaults: a 64 MB simulated heap, barriers enabled, pruning disabled.
type Options struct {
	// HeapLimit is the maximum heap size in simulated bytes (default 64 MB).
	HeapLimit uint64

	// GCWorkers is the tracer parallelism (default: min(4, GOMAXPROCS)).
	GCWorkers int

	// Policy enables leak pruning with the given prediction algorithm.
	// Nil reproduces the unmodified VM ("Base").
	Policy core.Policy

	// OffloadDisk enables the Melt/LeakSurvivor-style baseline instead of
	// pruning: highly stale objects are moved to a simulated disk of this
	// many bytes and faulted back in on access (§6's comparison systems).
	// Mutually exclusive with Policy.
	OffloadDisk uint64

	// EnableBarriers compiles read barriers into the mutator API. Pruning
	// requires barriers; disabling them (for overhead measurement) with a
	// policy set is a configuration error.
	EnableBarriers bool

	// Barrier selects the read-barrier implementation.
	Barrier BarrierVariant

	// LazyBarriers models the production refinement §5 suggests: "trigger
	// recompilation of all methods with read barriers only when leak
	// pruning enters the OBSERVE state". Until the controller leaves
	// INACTIVE, reference loads skip the barrier test entirely (safe: the
	// collector only tags references from OBSERVE onward), so non-leaking
	// programs pay nothing.
	LazyBarriers bool

	// NearlyFullFraction and FullHeapOnly pass through to the pruning
	// controller (§3.1); zero values mean the paper's defaults (0.9,
	// option (2)).
	NearlyFullFraction float64
	FullHeapOnly       bool

	// ForceState pins the controller state for overhead experiments
	// (Figure 6/7); Forced enables it.
	ForceState core.State
	Forced     bool

	// GCLog, if set, receives one human-readable line per collection, in
	// the style of a JVM's verbose-GC log. Written inside the stop-the-world
	// section.
	GCLog io.Writer

	// OnGC, if set, is called after every full-heap collection with the
	// collection result and post-collection heap statistics. Harnesses use
	// it to record the paper's reachable-memory time series. It runs
	// inside the stop-the-world section and must not touch the VM.
	OnGC func(Event)

	// OnPrune and OnOOM pass through to the controller's reporting hooks.
	OnPrune func(core.PruneEvent)
	// OnOOM receives the out-of-memory warning issued the first time the
	// program exhausts memory (§3.2).
	OnOOM func(*vmerrors.OutOfMemoryError)

	// FaultInjector arms deterministic fault injection across the VM's
	// subsystems (trace workers, allocator, finalizers, edge table, offload
	// disk). Nil disables every injection point at zero cost.
	FaultInjector *faultinject.Injector

	// AuditEveryGC runs the full heap invariant audit (vm.Verify) inside
	// every full-heap collection's stop-the-world section. Violations are
	// counted in Stats and retained for LastAudit. Expensive (a full object
	// table scan per collection); meant for tests.
	AuditEveryGC bool

	// STWWatchdog bounds how long a parallel trace closure may run before
	// the collection abandons it and degrades to the serial tracer
	// (0 disables the deadline).
	STWWatchdog time.Duration

	// MarkMode selects the closure strategy for all cycle modes: MarkSTW
	// (default) traces inside the pause; MarkConcurrent marks concurrently
	// with mutators behind an SATB deletion barrier, shrinking pauses to
	// root snapshot + remark + bookkeeping — including SELECT and PRUNE
	// cycles, whose selection and poisoning verify against a frozen
	// staleness snapshot in the final remark. Mutually exclusive with
	// OffloadDisk.
	MarkMode MarkMode

	// Obs attaches the observability layer (metrics registry + trace-event
	// tracer, see internal/obs): GC phase spans, safepoint stop-latency
	// histograms, trap/barrier/fault counters, and one trace track per
	// thread that emits (poison traps, offload fault-ins).
	// Nil (the default) disables it; every instrumentation site then
	// reduces to a single nil check with no allocation and no clock read.
	Obs *obs.Obs

	// TraceRecorder attaches an allocation-trace recorder (internal/trace):
	// every mutator operation, collector free, and completed GC cycle is
	// recorded into per-thread streams, buffered thread-locally inside
	// critical regions and drained at stop-the-world.
	// Nil (the default) disables recording; every record site then reduces
	// to one nil check.
	TraceRecorder *trace.Recorder

	// HashLiveSet computes a live-set fingerprint (see LiveSetHash) inside
	// every full collection's final stop-the-world pause and delivers it in
	// Event.LiveHash. It is the cross-run equivalence probe replay and the
	// multi-tenant isolation proofs key on: two runs of one binary whose
	// per-cycle hash sequences agree have byte-identical live heaps after
	// every collection. The value is a word-wise multiplicative mix with no
	// meaning across builds. Costs a full object-table walk per collection,
	// so it is a verification switch — off by default, and leakd turns it on
	// only for tenants admitted with AuditEveryGC.
	HashLiveSet bool
}

// ValidateOptions applies defaults and reports whether the options form a
// valid configuration — the same check New performs before construction,
// exposed so long-lived hosts (cmd/leakd's rolling per-tenant config
// updates) can reject a bad config with a typed *OptionError instead of
// recovering New's panic mid-swap.
func ValidateOptions(o Options) error {
	return o.withDefaults().validate()
}

// OptionError reports an invalid Options field combination. It is the typed
// error behind New's configuration panic, so tests (and embedders that call
// validate through New with recover) can assert on the offending field
// rather than matching message text.
type OptionError struct {
	// Option names the offending field (or field combination).
	Option string
	// Reason says what is wrong with it.
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("vm: invalid option %s: %s", e.Option, e.Reason)
}

// badFraction reports why f is unusable as a fraction option, or "" if it
// is fine. Zero is always acceptable (it means "use the paper's default").
func badFraction(f float64) string {
	switch {
	case math.IsNaN(f):
		return "is NaN"
	case f < 0:
		return fmt.Sprintf("is negative (%g)", f)
	}
	return ""
}

func (o Options) withDefaults() Options {
	if o.HeapLimit == 0 {
		o.HeapLimit = 64 << 20
	}
	if o.GCWorkers == 0 {
		o.GCWorkers = runtime.GOMAXPROCS(0)
		if o.GCWorkers > 4 {
			o.GCWorkers = 4
		}
	}
	return o
}

// Fingerprint hashes the execution-relevant effective options: every field
// that changes what a run does to the heap. The trace recorder stamps it
// into the header, and `lp trace stat` prints it, so two recordings can be
// told apart by the options they ran under; nothing compares it on
// replay. Callback hooks, observability attachments, and the fault
// injector are excluded: they observe a run without steering it.
func (o Options) Fingerprint() uint64 {
	o = o.withDefaults()
	policy := "off"
	if o.Policy != nil {
		policy = o.Policy.Name()
	}
	s := fmt.Sprintf("heap=%d policy=%s disk=%d barriers=%v bvar=%d lazy=%v nff=%g fho=%v forced=%v/%d mark=%d",
		o.HeapLimit, policy, o.OffloadDisk, o.EnableBarriers, int(o.Barrier),
		o.LazyBarriers, o.NearlyFullFraction, o.FullHeapOnly, o.Forced,
		int(o.ForceState), int(o.MarkMode))
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func (o Options) validate() error {
	if o.Policy != nil && !o.EnableBarriers {
		return &OptionError{Option: "Policy+EnableBarriers",
			Reason: fmt.Sprintf("leak pruning (policy %q) requires read barriers", o.Policy.Name())}
	}
	if o.Forced && o.Policy != nil {
		return &OptionError{Option: "Forced+Policy",
			Reason: "forced state and a pruning policy are mutually exclusive"}
	}
	if o.OffloadDisk > 0 {
		if o.Policy != nil {
			return &OptionError{Option: "OffloadDisk+Policy",
				Reason: "leak pruning and disk offloading are mutually exclusive"}
		}
		if !o.EnableBarriers {
			return &OptionError{Option: "OffloadDisk+EnableBarriers",
				Reason: "disk offloading requires read barriers (staleness tracking and fault-ins)"}
		}
		if o.Forced {
			return &OptionError{Option: "OffloadDisk+Forced",
				Reason: "forced state and disk offloading are mutually exclusive"}
		}
	}
	if why := badFraction(o.NearlyFullFraction); why != "" {
		return &OptionError{Option: "NearlyFullFraction", Reason: why}
	}
	if o.NearlyFullFraction >= 1 {
		// 1.0 would defer SELECT until the heap is already exhausted —
		// pruning could never engage before the OOM it exists to avert.
		return &OptionError{Option: "NearlyFullFraction",
			Reason: fmt.Sprintf("must be below 1.0, got %g", o.NearlyFullFraction)}
	}
	if o.GCWorkers < 0 {
		return &OptionError{Option: "GCWorkers",
			Reason: fmt.Sprintf("must not be negative, got %d", o.GCWorkers)}
	}
	if o.STWWatchdog < 0 {
		return &OptionError{Option: "STWWatchdog",
			Reason: fmt.Sprintf("must not be negative, got %v", o.STWWatchdog)}
	}
	if o.ForceState < core.StateInactive || o.ForceState > core.StatePrune {
		return &OptionError{Option: "ForceState",
			Reason: fmt.Sprintf("unknown state %d", int(o.ForceState))}
	}
	if o.Forced && o.ForceState == core.StatePrune {
		// A PRUNE cycle poisons what a SELECT cycle chose; a forced one
		// has no selection to poison.
		return &OptionError{Option: "ForceState",
			Reason: "a forced PRUNE state has no selection to prune"}
	}
	if o.Barrier != BarrierConditional && o.Barrier != BarrierUnconditional {
		return &OptionError{Option: "Barrier",
			Reason: fmt.Sprintf("unknown variant %d", int(o.Barrier))}
	}
	if o.MarkMode != MarkSTW && o.MarkMode != MarkConcurrent {
		return &OptionError{Option: "MarkMode",
			Reason: fmt.Sprintf("unknown mode %d", int(o.MarkMode))}
	}
	if o.MarkMode == MarkConcurrent && o.OffloadDisk > 0 {
		// The offload baseline's fault-in path runs ad-hoc collections
		// outside the cycle driver's serialization, which a concurrent
		// cycle cannot tolerate mid-mark.
		return &OptionError{Option: "MarkMode+OffloadDisk",
			Reason: "concurrent marking and disk offloading are mutually exclusive"}
	}
	return nil
}
