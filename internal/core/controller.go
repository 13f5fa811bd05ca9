package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"leakpruning/internal/edgetable"
	"leakpruning/internal/gc"
	"leakpruning/internal/heap"
	"leakpruning/internal/vmerrors"
)

// Options configures a Controller. Zero values select the paper's defaults.
type Options struct {
	// Policy chooses references to prune. Nil disables pruning entirely
	// (the unmodified-VM baseline).
	Policy Policy

	// NearlyFullFraction is the OBSERVE → SELECT threshold. Default 0.9.
	NearlyFullFraction float64

	// FullHeapOnly selects the paper's option (1): wait until the program
	// has actually exhausted memory before the first prune, instead of
	// pruning as soon as a SELECT collection finishes (option (2), the
	// default). After the first exhaustion both options behave the same.
	FullHeapOnly bool

	// ForceState pins the controller to one state for overhead measurement
	// (Figure 6/7's "Observe" and "Select" configurations). Forced
	// controllers never transition and never prune.
	ForceState State
	// Forced enables ForceState.
	Forced bool

	// OnPrune, if set, receives a report after every PRUNE collection —
	// the paper's optional reporting of pruned data structures (§3.2).
	OnPrune func(PruneEvent)

	// OnOOM, if set, receives the out-of-memory warning the first time the
	// program exhausts memory (§3.2).
	OnOOM func(*vmerrors.OutOfMemoryError)
}

// expectedUseFraction is the INACTIVE → OBSERVE threshold on heap fullness
// after a full collection. The paper's 0.5: users typically run programs in
// heaps at least twice maximum reachable memory (§3.1).
const expectedUseFraction = 0.5

func (o Options) withDefaults() Options {
	if o.NearlyFullFraction == 0 {
		o.NearlyFullFraction = 0.9
	}
	return o
}

// PruneEvent describes one PRUNE collection for reports and tests.
type PruneEvent struct {
	GCIndex    uint64
	Selection  string
	PrunedRefs int
	BytesFreed uint64
}

// Controller drives the leak-pruning state machine. It is not safe for
// concurrent use: the VM calls it only inside stop-the-world sections and
// under its allocation lock.
type Controller struct {
	opts    Options
	classes *heap.Registry
	edges   *edgetable.Table

	state      State
	everPruned bool // after the first PRUNE, SELECT always leads to PRUNE (§3.1)

	// selection is what the next PRUNE collection will poison.
	selection    Selection
	haveSel      bool
	lastMaxStale uint8

	cycle Cycle // live only during a SELECT-mode collection

	// snap is the staleness-snapshot cell shared with every Env this
	// controller hands out. PlanCycle freezes the edge table into it inside
	// the first pause of SELECT and PRUNE cycles (and unpins it otherwise),
	// so policy predicates running concurrently with mutators observe one
	// consistent maxStaleUse cut. The degrade path re-runs the same plan,
	// hence the same cut — part of the byte-identical STW oracle contract.
	snap StaleSnapshot

	// nearlyFull is the live OBSERVE → SELECT threshold, stored as
	// math.Float64bits so a daemon's budget-pressure controller can tighten
	// it between collections without racing FinishCycle (which reads it
	// inside the stop-the-world section).
	nearlyFull atomic.Uint64

	exhaustMu  sync.Mutex
	exhausted  bool
	avertedOOM *vmerrors.OutOfMemoryError

	events      []PruneEvent
	totalPruned uint64 // references poisoned over the controller's lifetime
}

// NewController creates a controller over the given class registry.
func NewController(classes *heap.Registry, opts Options) *Controller {
	opts = opts.withDefaults()
	c := &Controller{
		opts:    opts,
		classes: classes,
		edges:   edgetable.New(edgetable.DefaultSlots),
		state:   StateInactive,
	}
	if opts.Forced {
		c.state = opts.ForceState
	}
	c.nearlyFull.Store(math.Float64bits(opts.NearlyFullFraction))
	return c
}

// NearlyFullFraction returns the live OBSERVE → SELECT threshold.
func (c *Controller) NearlyFullFraction() float64 {
	return math.Float64frombits(c.nearlyFull.Load())
}

// SetNearlyFullFraction replaces the OBSERVE → SELECT threshold at runtime.
// Values outside (0, 1) are rejected with false — the same bounds Options
// validation enforces at construction. Multi-tenant hosts tighten this
// under global budget pressure so pruning engages before the budget (not
// just the per-tenant heap limit) is threatened.
func (c *Controller) SetNearlyFullFraction(f float64) bool {
	if math.IsNaN(f) || f <= 0 || f >= 1 {
		return false
	}
	c.nearlyFull.Store(math.Float64bits(f))
	return true
}

// Enabled reports whether pruning is configured (a policy is set).
func (c *Controller) Enabled() bool { return c.opts.Policy != nil }

// State returns the current state.
func (c *Controller) State() State { return c.state }

// Edges exposes the edge table (the read barrier updates maxStaleUse
// through it, and reports read it).
func (c *Controller) Edges() *edgetable.Table { return c.edges }

// Observing reports whether staleness must be tracked: the read barrier's
// cold path consults this before touching the edge table.
func (c *Controller) Observing() bool { return c.state >= StateObserve }

// AvertedOOM returns the recorded out-of-memory error the program would
// have thrown, if it has exhausted memory (or begun pruning) already.
func (c *Controller) AvertedOOM() *vmerrors.OutOfMemoryError {
	c.exhaustMu.Lock()
	defer c.exhaustMu.Unlock()
	return c.avertedOOM
}

// Events returns the prune events recorded so far.
func (c *Controller) Events() []PruneEvent { return c.events }

// TotalPrunedRefs returns the lifetime count of poisoned references.
func (c *Controller) TotalPrunedRefs() uint64 { return c.totalPruned }

// PlanCycle builds the gc.Plan for the next collection according to the
// current state.
func (c *Controller) PlanCycle() gc.Plan {
	// Unpin any previous cycle's staleness cut; SELECT/PRUNE re-pin below.
	c.snap.Pin(nil)
	if !c.Enabled() && !c.opts.Forced {
		return gc.Plan{Mode: gc.ModeNormal}
	}
	switch c.state {
	case StateInactive:
		return gc.Plan{Mode: gc.ModeNormal}
	case StateObserve:
		return gc.Plan{Mode: gc.ModeNormal, TagRefs: true, AgeStaleness: true}
	case StateSelect:
		plan := gc.Plan{Mode: gc.ModeSelect, TagRefs: true, AgeStaleness: true}
		if c.opts.Policy != nil {
			c.cycle = c.opts.Policy.Begin(c.env())
		} else {
			// Forced SELECT without a policy measures the default
			// algorithm's SELECT-state costs without pruning (Figure 7).
			c.cycle = DefaultPolicy{}.Begin(c.env())
		}
		// Freeze after Begin so policies that mutate the table on cycle
		// start (DecayPolicy) have their effect inside the frozen cut.
		c.snap.Pin(c.edges.Freeze())
		plan.Candidate = c.cycle.Candidate
		if o, ok := c.cycle.(StaleEdgeObserver); ok {
			plan.StaleEdge = o.StaleEdge
		}
		plan.AccountStaleBytes = c.cycle.AccountStaleBytes
		return plan
	case StatePrune:
		plan := gc.Plan{Mode: gc.ModePrune, TagRefs: true, AgeStaleness: true}
		// Re-freeze at prune time: a use observed between SELECT and PRUNE
		// raises the bar (§4.3) and must be visible to ShouldPrune.
		c.snap.Pin(c.edges.Freeze())
		sel := c.selection
		plan.ShouldPrune = sel.ShouldPrune
		plan.OnPrune = func(_ heap.ObjectID, _ int, src, tgt heap.ClassID) {
			c.edges.RecordPrune(src, tgt)
		}
		return plan
	}
	panic(fmt.Sprintf("core: invalid state %v", c.state))
}

func (c *Controller) env() Env {
	return Env{Edges: c.edges, Classes: c.classes, LastMaxStale: c.lastMaxStale, Snap: &c.snap}
}

// FrozenSnapshot returns the staleness cut pinned for the current cycle,
// or nil outside SELECT/PRUNE cycles (diagnostics and tests).
func (c *Controller) FrozenSnapshot() *edgetable.Frozen { return c.snap.Pinned() }

// FinishCycle consumes the collection result and the post-collection heap
// statistics, performing the state transition of Figure 2.
func (c *Controller) FinishCycle(res gc.Result, hs heap.Stats) {
	c.lastMaxStale = res.MaxStale
	if c.opts.Forced {
		c.cycle = nil
		return
	}
	if !c.Enabled() {
		return
	}
	fullness := hs.Fullness()
	switch c.state {
	case StateInactive:
		if fullness > expectedUseFraction {
			// Entering OBSERVE is permanent: the application is now
			// considered to be in an unexpected state (§3.1).
			c.state = StateObserve
		}
	case StateObserve:
		if fullness > c.NearlyFullFraction() {
			c.state = StateSelect
		}
	case StateSelect:
		sel, ok := c.cycle.Finish(res)
		c.cycle = nil
		if ok {
			c.selection = sel
			c.haveSel = true
			if !c.opts.FullHeapOnly || c.everPruned || c.hasExhausted() {
				c.state = StatePrune
			}
			// Under FullHeapOnly before the first exhaustion, stay in
			// SELECT; NotifyExhaustion moves to PRUNE when the VM is about
			// to throw an out-of-memory error.
		} else if fullness <= c.NearlyFullFraction() {
			c.state = StateObserve
		}
	case StatePrune:
		c.everPruned = true
		c.recordPruneStart(hs, res.Index)
		c.events = append(c.events, PruneEvent{
			GCIndex:    res.Index,
			Selection:  c.selection.String(),
			PrunedRefs: res.PrunedRefs,
			BytesFreed: res.BytesFreed,
		})
		c.totalPruned += uint64(res.PrunedRefs)
		if c.opts.OnPrune != nil {
			c.opts.OnPrune(c.events[len(c.events)-1])
		}
		c.selection = nil
		c.haveSel = false
		if fullness <= c.NearlyFullFraction() {
			c.state = StateObserve
		} else {
			c.state = StateSelect
		}
	}
}

// WillPruneNext reports whether the next collection will poison references,
// so the VM's allocation slow path knows another collection may help even
// though the last one freed nothing.
func (c *Controller) WillPruneNext() bool { return c.state == StatePrune && c.haveSel }

// InSelect reports whether the next collection runs the SELECT closures.
func (c *Controller) InSelect() bool { return c.state == StateSelect }

func (c *Controller) hasExhausted() bool {
	c.exhaustMu.Lock()
	defer c.exhaustMu.Unlock()
	return c.exhausted
}

// NotifyExhaustion tells the controller the VM is about to throw an
// out-of-memory error (allocation failed even after collecting). It records
// and defers the error (§2) and returns true when another collection could
// still help — i.e. a selection is pending and PRUNE is now authorized
// (the FullHeapOnly path). The VM throws the recorded error only when this
// returns false and no further progress is possible.
func (c *Controller) NotifyExhaustion(hs heap.Stats, request uint64, gcIndex uint64) bool {
	if !c.Enabled() || c.opts.Forced {
		return false
	}
	c.recordOOM(hs, request, gcIndex)
	if c.state == StateSelect && c.haveSel {
		c.state = StatePrune
		return true
	}
	return c.state == StatePrune && c.haveSel
}

// recordPruneStart records the averted OOM the first time pruning runs,
// even when the program never strictly exhausted memory (option (2) treats
// the nearly-full threshold as the effective maximum heap, §3.1). The heap
// state at that moment becomes the error's detail.
func (c *Controller) recordPruneStart(hs heap.Stats, gcIndex uint64) {
	c.exhaustMu.Lock()
	defer c.exhaustMu.Unlock()
	if c.avertedOOM == nil {
		c.avertedOOM = &vmerrors.OutOfMemoryError{
			HeapLimit: hs.Limit,
			BytesUsed: hs.BytesUsed,
			GCIndex:   gcIndex,
			Effective: true,
		}
		if c.opts.OnOOM != nil {
			c.opts.OnOOM(c.avertedOOM)
		}
	}
}

func (c *Controller) recordOOM(hs heap.Stats, request uint64, gcIndex uint64) {
	c.exhaustMu.Lock()
	defer c.exhaustMu.Unlock()
	c.exhausted = true
	if c.avertedOOM == nil || c.avertedOOM.Effective {
		oom := &vmerrors.OutOfMemoryError{
			HeapLimit: hs.Limit,
			BytesUsed: hs.BytesUsed,
			Request:   request,
			GCIndex:   gcIndex,
		}
		first := c.avertedOOM == nil
		if first {
			c.avertedOOM = oom
		} else {
			// Upgrade the effective record in place so InternalErrors
			// created earlier keep pointing at the shared instance.
			*c.avertedOOM = *oom
		}
		if first && c.opts.OnOOM != nil {
			c.opts.OnOOM(c.avertedOOM)
		}
	}
}

// MakeOOM builds the out-of-memory error the VM throws when pruning cannot
// help (or pruning is disabled). When an averted OOM was already recorded,
// that instance is returned so later InternalErrors share the cause.
func (c *Controller) MakeOOM(hs heap.Stats, request uint64, gcIndex uint64) *vmerrors.OutOfMemoryError {
	c.exhaustMu.Lock()
	defer c.exhaustMu.Unlock()
	c.exhausted = true
	if c.avertedOOM != nil {
		if c.avertedOOM.Effective {
			c.avertedOOM.HeapLimit = hs.Limit
			c.avertedOOM.BytesUsed = hs.BytesUsed
			c.avertedOOM.Request = request
			c.avertedOOM.GCIndex = gcIndex
			c.avertedOOM.Effective = false
		}
		return c.avertedOOM
	}
	c.avertedOOM = &vmerrors.OutOfMemoryError{
		HeapLimit: hs.Limit,
		BytesUsed: hs.BytesUsed,
		Request:   request,
		GCIndex:   gcIndex,
	}
	if c.opts.OnOOM != nil {
		c.opts.OnOOM(c.avertedOOM)
	}
	return c.avertedOOM
}
