package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"leakpruning/internal/core"
	"leakpruning/internal/trace"
	"leakpruning/internal/vm"
	"leakpruning/internal/workload"
)

// A run's spec — the part of its configuration that decides how the heap
// evolves — is the trace.Meta a recording's header stores. Run derives it
// from its Config (meta), Replay reads it from the trace and applies its
// overrides, and both build their VM from it (newVM), so a recording cannot
// name an option its replay does not apply.

// meta is the spec of a run of prog under cfg, with the empty selectors
// spelled out so a trace names the modes it ran under.
func (cfg Config) meta(prog workload.Program) trace.Meta {
	m := trace.Meta{
		Program:        prog.Name(),
		Policy:         policyLabel(cfg.Policy),
		MarkMode:       orDefault(cfg.MarkMode, "stw"),
		BarrierVariant: orDefault(cfg.BarrierVariant, "conditional"),
		ForceState:     cfg.ForceState,
		HeapLimit:      cfg.HeapLimit,
	}
	if m.HeapLimit == 0 {
		m.HeapLimit = prog.DefaultHeap()
	}
	if cfg.HashLiveSet {
		m.Flags |= trace.FlagHashLiveSet
	}
	if cfg.FullHeapOnly {
		m.Flags |= trace.FlagFullHeapOnly
	}
	if cfg.BarriersOff {
		m.Flags |= trace.FlagBarriersOff
	}
	return m
}

// knownFlags are the trace.Meta flag bits newVM applies.
const knownFlags = trace.FlagHashLiveSet | trace.FlagFullHeapOnly | trace.FlagBarriersOff

// newVM builds the VM a spec describes. attach carries what observes or
// perturbs a run without being part of its recording (workers, injector,
// audit, obs, recorder, callbacks); the spec's fields are laid over it. The
// combination is validated first, so an invalid one comes back as the
// *vm.OptionError that vm.New would panic with. A flag bit newVM does not
// apply (a reserved one, or one from a newer recorder) is an error too: the
// VM it built would run a different program than the one recorded.
func newVM(m trace.Meta, attach vm.Options) (*vm.VM, error) {
	if extra := m.Flags &^ knownFlags; extra != 0 {
		return nil, fmt.Errorf("harness: unsupported trace flags %#x", extra)
	}
	opts := attach
	opts.HeapLimit = m.HeapLimit
	opts.HashLiveSet = m.Flags&trace.FlagHashLiveSet != 0
	opts.FullHeapOnly = m.Flags&trace.FlagFullHeapOnly != 0
	opts.EnableBarriers = m.Flags&trace.FlagBarriersOff == 0
	if err := opts.SetModes(m.Policy, m.MarkMode); err != nil {
		return nil, err
	}
	switch m.ForceState {
	case "":
	case "observe":
		opts.Forced, opts.ForceState = true, core.StateObserve
	case "select":
		opts.Forced, opts.ForceState = true, core.StateSelect
	default:
		return nil, fmt.Errorf("harness: unknown forced state %q", m.ForceState)
	}
	switch m.BarrierVariant {
	case "", "conditional":
	case "unconditional":
		opts.Barrier = vm.BarrierUnconditional
	default:
		return nil, fmt.Errorf("harness: unknown barrier variant %q", m.BarrierVariant)
	}
	if err := vm.ValidateOptions(opts); err != nil {
		return nil, err
	}
	return vm.New(opts), nil
}

func policyLabel(name string) string {
	if vm.NoPolicyName(name) {
		return "base"
	}
	return name
}

// orDefault normalizes an empty mode selector to its default's name.
func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// sampler collects the reachable-memory series of a run or a replay: one
// GCSample per full collection, tagged with the iteration the mutators had
// reached. Its onGC is the VM's OnGC hook.
type sampler struct {
	iter    atomic.Int64
	mu      sync.Mutex // a replay's clones can each trigger a collection
	samples []GCSample
}

func (s *sampler) onGC(ev vm.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, GCSample{
		GCIndex:    ev.Result.Index,
		Iteration:  int(s.iter.Load()),
		BytesLive:  ev.Heap.BytesUsed,
		State:      ev.State,
		Mode:       ev.Result.Mode.String(),
		GCTime:     ev.Result.Duration,
		LiveHash:   ev.LiveHash,
		Candidates: ev.Result.Candidates,
		Pruned:     ev.Result.PrunedRefs,
		Degraded:   ev.Result.Degraded,
	})
}
