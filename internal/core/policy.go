package core

import (
	"fmt"

	"leakpruning/internal/edgetable"
	"leakpruning/internal/gc"
	"leakpruning/internal/heap"
)

// Env gives policies access to the runtime structures they select over.
type Env struct {
	Edges   *edgetable.Table
	Classes *heap.Registry
	// LastMaxStale is the highest stale counter among live objects observed
	// by the most recent collection (after aging).
	LastMaxStale uint8
	// Snap, when non-nil, is the controller-owned staleness-snapshot cell.
	// The controller freezes the edge table into it inside the first pause
	// of every SELECT and PRUNE cycle, so policy predicates evaluated while
	// mutators run (the concurrent mark modes) observe one consistent cut
	// of maxStaleUse instead of racing the read barrier's live updates.
	// Policies read through Env.MaxStaleUseFor to get this automatically.
	Snap *StaleSnapshot
}

// MaxStaleUseFor returns the edge type's maxStaleUse as of the current
// cycle's staleness cut: the frozen snapshot when one is pinned, the live
// table otherwise (Envs built without a controller, e.g. in tests).
func (e Env) MaxStaleUseFor(src, tgt heap.ClassID) uint8 {
	if e.Snap != nil {
		if f := e.Snap.frozen; f != nil {
			return f.MaxStaleUseFor(src, tgt)
		}
	}
	return e.Edges.MaxStaleUseFor(src, tgt)
}

// StaleSnapshot is the mutable cell through which a controller pins the
// edge table's staleness cut for the duration of one SELECT or PRUNE
// cycle. It is written only inside stop-the-world pauses (PlanCycle) and
// read by policy predicates during the cycle, so no atomics are needed:
// the world restart orders the write before every concurrent read.
type StaleSnapshot struct {
	frozen *edgetable.Frozen
}

// Pin replaces the snapshot's frozen cut (nil unpins, restoring live
// reads). Call only while the world is stopped.
func (s *StaleSnapshot) Pin(f *edgetable.Frozen) { s.frozen = f }

// Pinned returns the currently pinned cut, or nil.
func (s *StaleSnapshot) Pinned() *edgetable.Frozen { return s.frozen }

// Policy is a prediction algorithm for choosing references to prune. The
// paper's default algorithm and the two simpler baselines of §6.1 implement
// it; user code can supply its own (see examples/custompolicy).
type Policy interface {
	// Name identifies the policy in reports ("default", "most-stale",
	// "indiv-refs").
	Name() string
	// Begin starts one SELECT-state collection cycle. The returned Cycle's
	// hook methods are wired into the collector's Plan and may be called
	// concurrently by tracer workers.
	Begin(env Env) Cycle
}

// Cycle observes one SELECT-state collection and then produces a Selection.
type Cycle interface {
	// Candidate implements gc.Plan.Candidate: defer this reference to the
	// stale closure? Policies that elide the stale closure return false.
	Candidate(src, tgt heap.ClassID, stale uint8) bool
	// AccountStaleBytes implements gc.Plan.AccountStaleBytes: called with
	// the stale closure's per-candidate subgraph sizes.
	AccountStaleBytes(src, tgt heap.ClassID, bytes uint64)
	// Finish inspects the collection result and returns what to prune, or
	// false when nothing is worth pruning.
	Finish(res gc.Result) (Selection, bool)
}

// StaleEdgeObserver is the optional part of a Cycle that implements
// gc.Plan.StaleEdge: called, serially, for every traced reference whose
// target has stale counter >= 2. The collector buffers one record per such
// reference for the replay, so only a Cycle that has the method pays for
// it.
type StaleEdgeObserver interface {
	StaleEdge(src, tgt heap.ClassID, stale uint8, tgtBytes uint64)
}

// Selection decides, during a PRUNE-state collection, which references are
// poisoned.
type Selection interface {
	// ShouldPrune reports whether to poison a src→tgt reference whose
	// target has the given stale counter.
	ShouldPrune(src, tgt heap.ClassID, stale uint8) bool
	// String describes the selection for pruning reports.
	String() string
}

// staleGuard is the margin the default algorithm requires between a
// target's stale counter and its edge type's maxStaleUse. The paper
// conservatively uses two (not one) because the counters only approximate
// the logarithm of staleness (§4.2).
const staleGuard = 2

// ---------------------------------------------------------------------------
// Default policy (§4.2): edge types + data-structure sizing.

// DefaultPolicy is the paper's algorithm: the in-use closure defers
// references whose targets are at least staleGuard more stale than their
// edge type's maxStaleUse; the stale closure sizes each deferred data
// structure; the edge type with the most bytes is selected.
type DefaultPolicy struct{}

// Name returns "default".
func (DefaultPolicy) Name() string { return "default" }

// Begin starts a SELECT cycle.
func (DefaultPolicy) Begin(env Env) Cycle { return &defaultCycle{env: env} }

type defaultCycle struct {
	env Env
}

func (c *defaultCycle) Candidate(src, tgt heap.ClassID, stale uint8) bool {
	return stale >= c.env.MaxStaleUseFor(src, tgt)+staleGuard
}

func (c *defaultCycle) AccountStaleBytes(src, tgt heap.ClassID, bytes uint64) {
	c.env.Edges.AddBytesUsed(src, tgt, bytes)
}

func (c *defaultCycle) Finish(res gc.Result) (Selection, bool) {
	entry, ok := c.env.Edges.MaxBytesUsed()
	if !ok || entry.BytesUsed() == 0 {
		c.env.Edges.ResetBytesUsed()
		return nil, false
	}
	sel := &EdgeSelection{
		Src:   entry.Key().Src,
		Tgt:   entry.Key().Tgt,
		Bytes: entry.BytesUsed(),
		env:   c.env,
	}
	c.env.Edges.ResetBytesUsed()
	return sel, true
}

// EdgeSelection prunes references of one (source class → target class) edge
// type whose targets are sufficiently stale. The staleness threshold reads
// the edge type's maxStaleUse as of the PRUNE cycle's staleness cut (the
// controller re-freezes the table inside that cycle's first pause), as the
// paper's PRUNE state does (§4.3), so a use observed between SELECT and
// PRUNE raises the bar.
type EdgeSelection struct {
	Src, Tgt heap.ClassID
	Bytes    uint64
	env      Env
}

// ShouldPrune matches the selected edge type with the staleness guard.
func (s *EdgeSelection) ShouldPrune(src, tgt heap.ClassID, stale uint8) bool {
	if src != s.Src || tgt != s.Tgt {
		return false
	}
	return stale >= s.env.MaxStaleUseFor(src, tgt)+staleGuard
}

// String renders the edge type like the paper's reports, e.g.
// "B -> C (120 bytes)".
func (s *EdgeSelection) String() string {
	return fmt.Sprintf("%s -> %s (%d bytes)", s.env.Classes.Name(s.Src), s.env.Classes.Name(s.Tgt), s.Bytes)
}

// ---------------------------------------------------------------------------
// Most-stale policy (§6.1): the LeakSurvivor/Melt-like baseline.

// MostStalePolicy identifies the highest staleness level of any live object
// and prunes all references to every object at that level, ignoring edge
// types and data structures. It is effectively the prediction used by
// systems that offload stale objects to disk — too imprecise for pruning,
// as Table 2 shows.
type MostStalePolicy struct{}

// Name returns "most-stale".
func (MostStalePolicy) Name() string { return "most-stale" }

// Begin starts a SELECT cycle.
func (MostStalePolicy) Begin(env Env) Cycle { return &mostStaleCycle{} }

type mostStaleCycle struct{}

func (c *mostStaleCycle) Candidate(src, tgt heap.ClassID, stale uint8) bool     { return false }
func (c *mostStaleCycle) AccountStaleBytes(src, tgt heap.ClassID, bytes uint64) {}

func (c *mostStaleCycle) Finish(res gc.Result) (Selection, bool) {
	if res.MaxStale < staleGuard {
		return nil, false
	}
	return &StaleLevelSelection{Level: res.MaxStale}, true
}

// StaleLevelSelection prunes every reference whose target's stale counter
// has reached Level, regardless of edge type.
type StaleLevelSelection struct {
	Level uint8
}

// ShouldPrune matches any reference to an object at the selected level.
func (s *StaleLevelSelection) ShouldPrune(src, tgt heap.ClassID, stale uint8) bool {
	return stale >= s.Level
}

// String describes the staleness level.
func (s *StaleLevelSelection) String() string {
	return fmt.Sprintf("all references to objects with staleness >= %d", s.Level)
}

// ---------------------------------------------------------------------------
// Individual-references policy (§6.1).

// IndivRefsPolicy modifies the default algorithm by eliding the candidate
// queue and the stale transitive closure: every sufficiently stale
// reference contributes only its target object's own size to its edge
// type's bytesUsed, so the selection sees individual references rather than
// data structures. Table 2 shows why this fails on EclipseCP: it selects
// the bulky-but-live String → char[] edge instead of the dead structures
// rooted above the strings.
type IndivRefsPolicy struct{}

// Name returns "indiv-refs".
func (IndivRefsPolicy) Name() string { return "indiv-refs" }

// Begin starts a SELECT cycle.
func (IndivRefsPolicy) Begin(env Env) Cycle { return &indivRefsCycle{env: env} }

type indivRefsCycle struct {
	env Env
}

func (c *indivRefsCycle) Candidate(src, tgt heap.ClassID, stale uint8) bool { return false }

func (c *indivRefsCycle) StaleEdge(src, tgt heap.ClassID, stale uint8, tgtBytes uint64) {
	if stale >= c.env.MaxStaleUseFor(src, tgt)+staleGuard {
		c.env.Edges.AddBytesUsed(src, tgt, tgtBytes)
	}
}

func (c *indivRefsCycle) AccountStaleBytes(src, tgt heap.ClassID, bytes uint64) {}

func (c *indivRefsCycle) Finish(res gc.Result) (Selection, bool) {
	entry, ok := c.env.Edges.MaxBytesUsed()
	if !ok || entry.BytesUsed() == 0 {
		c.env.Edges.ResetBytesUsed()
		return nil, false
	}
	sel := &EdgeSelection{
		Src:   entry.Key().Src,
		Tgt:   entry.Key().Tgt,
		Bytes: entry.BytesUsed(),
		env:   c.env,
	}
	c.env.Edges.ResetBytesUsed()
	return sel, true
}

// PolicyByName returns the built-in policy with the given name: "default",
// "most-stale", "indiv-refs", or "decay" (the default algorithm with
// periodic maxStaleUse decay, the paper's suggested extension for phased
// programs).
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "default":
		return DefaultPolicy{}, nil
	case "most-stale":
		return MostStalePolicy{}, nil
	case "indiv-refs":
		return IndivRefsPolicy{}, nil
	case "decay":
		return &DecayPolicy{}, nil
	}
	return nil, fmt.Errorf("core: unknown policy %q", name)
}
