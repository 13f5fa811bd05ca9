// Package faultinject is the runtime's deterministic fault-injection
// subsystem: a seeded source of injection decisions that the heap, the
// collector, the VM, and the offload baseline consult at their failure
// points. It exists to adversarially exercise the graceful-degradation
// machinery — recovered tracer panics, free-list corruption detection,
// offload I/O retry, finalizer isolation — rather than trusting that the
// concurrent pointer manipulation underneath leak pruning is sound.
//
// Decisions are pseudo-random but reproducible: each Should call draws one
// value from a splitmix64 stream keyed by (seed, point, draw index), so a
// campaign run with the same seed and the same serial draw order makes the
// same decisions. Under parallel GC workers the draw order follows the
// goroutine schedule; determinism then holds per (point, draw count), which
// is what the fault matrix (harness.TestFaultMatrix) relies on per seed.
//
// The package deliberately imports nothing from the rest of the runtime
// (except the equally leaf-like obs package) so every layer can depend on
// it without cycles. A nil *Injector is valid and injects nothing, so
// production paths pay one nil check when fault injection is disabled.
package faultinject

import (
	"fmt"
	"sort"
	"sync/atomic"

	"leakpruning/internal/obs"
)

// Point names one injection site in the runtime.
type Point uint8

const (
	// TraceWorkerPanic makes a parallel GC trace worker panic mid-closure.
	// The collector must recover it and re-run the collection serially.
	TraceWorkerPanic Point = iota
	// TraceWatchdogTrip fires the STW watchdog as if the parallel trace had
	// exceeded its deadline, forcing the downgrade-to-serial path without
	// depending on wall-clock timing.
	TraceWatchdogTrip
	// ShardFreeListCorruption plants a duplicate entry in an allocator
	// shard's free list; the shard's integrity probe must detect and repair
	// it under the same lock hold.
	ShardFreeListCorruption
	// OffloadWriteFault fails one attempt to move an object to the
	// simulated disk (a transient write error). The offloader retries with
	// capped backoff and then falls back to keeping the object in-heap.
	OffloadWriteFault
	// OffloadReadFault fails one attempt to fault an offloaded object back
	// in. The VM retries with capped backoff and then throws a typed
	// OffloadError instead of a raw panic.
	OffloadReadFault
	// AllocLimitRace makes one allocation-time limit reservation behave as
	// if a racing thread had consumed the remaining headroom, pushing the
	// mutator through the collect-and-retry slow path.
	AllocLimitRace
	// FinalizerPanic makes one finalizer invocation panic. The VM must
	// recover it per-finalizer without aborting the STW section.
	FinalizerPanic
	// EdgeTableOverflow makes one edge-table insertion behave as if the
	// fixed-size table were full; the table must drop the update and count
	// the overflow instead of panicking.
	EdgeTableOverflow
	// SafepointStall stretches the safepoint protocol's ragged barrier: the
	// collector is delayed after raising the stop flag, and a mutator about
	// to park is delayed before reaching its safepoint. The delay is
	// semantics-free, so runs with it armed must match fault-free controls.
	SafepointStall
	// SATBBarrierDrop silently discards one entry logged into a thread's
	// SATB deletion-barrier buffer during concurrent marking, modelling a
	// lost pre-write snapshot (the loss is detected, as if by a buffer
	// checksum, and recorded). The remark pause must notice the drop and
	// degrade to a fresh fully-STW closure so the live set stays exact.
	SATBBarrierDrop
	// RemarkStall stretches the concurrent cycle's final-remark pause with a
	// semantics-free delay, widening the window in which mutators are parked
	// behind the remark's ragged barrier. Runs with it armed must match
	// fault-free controls.
	RemarkStall
	// TenantRequestPanic makes one tenant request handler in the leakd
	// daemon panic mid-request (a raw, non-VM panic — the kind RunThread
	// deliberately propagates). The server must recover it at the request
	// boundary, convert it into a typed per-tenant error response, and leave
	// every sibling tenant untouched.
	TenantRequestPanic
	// BudgetProbeStall stretches one budget-pressure probe with a
	// semantics-free delay, modelling a slow metrics scrape. The ladder's
	// decisions must be unaffected; runs with it armed must match fault-free
	// controls on every per-tenant observable.
	BudgetProbeStall
	// EvictDrainTimeout makes one tenant eviction behave as if its in-flight
	// requests failed to drain before the deadline, forcing the
	// abandon-and-collect path instead of the graceful one.
	EvictDrainTimeout
	// SelectSnapshotDrift makes one concurrent SELECT/PRUNE remark behave as
	// if the frozen edge-table staleness snapshot had drifted beyond what
	// per-edge demotion can absorb (as if a coherence checksum over the
	// frozen cut failed). The cycle must degrade to a fresh fully-STW
	// closure that reproduces the STW oracle byte-for-byte.
	SelectSnapshotDrift
	// PruneRemarkStall stretches the final-remark pause of a concurrent
	// PRUNE cycle — the pause that poisons references over the completed
	// closure — with a semantics-free delay. Runs with it armed must match
	// fault-free controls on every observable.
	PruneRemarkStall

	// NumPoints is the number of injection points (must stay last).
	// New points are appended, never inserted: the decision hash is keyed
	// by point index, so insertion would silently re-seed every later
	// point's draw sequence (guarded by TestSeedStability).
	NumPoints
)

var pointNames = [NumPoints]string{
	TraceWorkerPanic:        "trace-worker-panic",
	TraceWatchdogTrip:       "trace-watchdog-trip",
	ShardFreeListCorruption: "shard-freelist-corruption",
	OffloadWriteFault:       "offload-write-fault",
	OffloadReadFault:        "offload-read-fault",
	AllocLimitRace:          "alloc-limit-race",
	FinalizerPanic:          "finalizer-panic",
	EdgeTableOverflow:       "edgetable-overflow",
	SafepointStall:          "safepoint-stall",
	SATBBarrierDrop:         "satb-barrier-drop",
	RemarkStall:             "remark-stall",
	TenantRequestPanic:      "tenant-request-panic",
	BudgetProbeStall:        "budget-probe-stall",
	EvictDrainTimeout:       "evict-drain-timeout",
	SelectSnapshotDrift:     "select-snapshot-drift",
	PruneRemarkStall:        "prune-remark-stall",
}

// String returns the point's campaign-report name.
func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// PointByName resolves a campaign-report name back to its Point.
func PointByName(name string) (Point, bool) {
	for p, n := range pointNames {
		if n == name {
			return Point(p), true
		}
	}
	return NumPoints, false
}

// PointNames lists every injection point name, in Point order.
func PointNames() []string {
	out := make([]string, NumPoints)
	copy(out, pointNames[:])
	return out
}

// noLimit means a point fires as often as its probability allows.
const noLimit = ^uint64(0)

type pointState struct {
	// threshold is the armed probability in 2^-64 fixed point: a draw fires
	// when its hash is below threshold. 0 = disarmed.
	threshold atomic.Uint64
	// limit caps total fires (noLimit = unlimited).
	limit atomic.Uint64
	// draws and fires are the per-point decision counters.
	draws atomic.Uint64
	fires atomic.Uint64
}

// Injector is one seeded fault-injection configuration. All methods are safe
// for concurrent use and safe on a nil receiver (a nil Injector never
// injects), so the runtime's hot paths carry injection points without
// conditional wiring.
type Injector struct {
	seed   uint64
	points [NumPoints]pointState

	// Observability (nil when disabled; all methods nil-safe). Fires are
	// rare by construction, so the locked trace Emit is off the hot path.
	obsTrace *obs.Tracer
	obsFires [NumPoints]*obs.Counter
}

// New creates a disarmed injector for the given seed. Arm points
// individually afterwards.
func New(seed uint64) *Injector {
	inj := &Injector{seed: seed}
	for i := range inj.points {
		inj.points[i].limit.Store(noLimit)
	}
	return inj
}

// Seed returns the injector's seed.
func (inj *Injector) Seed() uint64 {
	if inj == nil {
		return 0
	}
	return inj.seed
}

// Arm sets the point's per-draw fire probability. Probabilities outside
// [0, 1] are clamped; 0 disarms the point.
func (inj *Injector) Arm(p Point, prob float64) {
	if inj == nil || p >= NumPoints {
		return
	}
	var threshold uint64
	switch {
	case prob <= 0 || prob != prob: // disarm on non-positive or NaN
	case prob >= 1:
		threshold = ^uint64(0)
	default:
		threshold = uint64(prob * float64(1<<63) * 2)
	}
	inj.points[p].threshold.Store(threshold)
}

// Limit caps how many times the point may fire over the injector's lifetime
// (n <= 0 removes the cap). Tests use it for "panic exactly once" scenarios.
func (inj *Injector) Limit(p Point, n int) {
	if inj == nil || p >= NumPoints {
		return
	}
	if n <= 0 {
		inj.points[p].limit.Store(noLimit)
		return
	}
	inj.points[p].limit.Store(uint64(n))
}

// SetObs attaches per-point fire counters and "fault.fire" trace instants.
// Safe on a nil receiver and a nil o.
func (inj *Injector) SetObs(o *obs.Obs) {
	if inj == nil || o == nil {
		return
	}
	reg := o.Registry()
	for p := Point(0); p < NumPoints; p++ {
		inj.obsFires[p] = reg.NewCounter("lp_fault_fires_total", "fault-injection firings by point", obs.L("point", p.String()))
	}
	inj.obsTrace = o.Tracer()
}

// Enabled reports whether the point is armed at all — a cheap pre-check for
// injection sites whose setup work (not just the decision) should be skipped
// when disarmed.
func (inj *Injector) Enabled(p Point) bool {
	return inj != nil && p < NumPoints && inj.points[p].threshold.Load() != 0
}

// Should draws one decision for the point: true means inject the fault now.
// Safe on a nil receiver (never fires).
func (inj *Injector) Should(p Point) bool {
	if inj == nil || p >= NumPoints {
		return false
	}
	ps := &inj.points[p]
	threshold := ps.threshold.Load()
	if threshold == 0 {
		return false
	}
	n := ps.draws.Add(1)
	if hash(inj.seed, uint64(p), n) >= threshold {
		return false
	}
	// Respect the fire cap: claim a slot below the limit or decline.
	for {
		fired := ps.fires.Load()
		limit := ps.limit.Load()
		if limit != noLimit && fired >= limit {
			return false
		}
		if ps.fires.CompareAndSwap(fired, fired+1) {
			inj.obsFires[p].Inc()
			if tr := inj.obsTrace; tr != nil {
				tr.Emit(obs.Instant("fault.fire", "fault", tr.Now(), 0, obs.AS("point", p.String())))
			}
			return true
		}
	}
}

// Fires returns how many times the point has fired.
func (inj *Injector) Fires(p Point) uint64 {
	if inj == nil || p >= NumPoints {
		return 0
	}
	return inj.points[p].fires.Load()
}

// Draws returns how many decisions have been drawn for the point.
func (inj *Injector) Draws(p Point) uint64 {
	if inj == nil || p >= NumPoints {
		return 0
	}
	return inj.points[p].draws.Load()
}

// PointStats is one point's campaign-report row.
type PointStats struct {
	Point string `json:"point"`
	Draws uint64 `json:"draws"`
	Fires uint64 `json:"fires"`
}

// Stats returns per-point draw/fire counts for every armed or exercised
// point, in Point order.
func (inj *Injector) Stats() []PointStats {
	if inj == nil {
		return nil
	}
	var out []PointStats
	for p := Point(0); p < NumPoints; p++ {
		draws, fires := inj.Draws(p), inj.Fires(p)
		if draws == 0 && fires == 0 && !inj.Enabled(p) {
			continue
		}
		out = append(out, PointStats{Point: p.String(), Draws: draws, Fires: fires})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// TotalFires sums fire counts across all points.
func (inj *Injector) TotalFires() uint64 {
	if inj == nil {
		return 0
	}
	var total uint64
	for p := Point(0); p < NumPoints; p++ {
		total += inj.Fires(p)
	}
	return total
}

// hash mixes (seed, point, draw index) through splitmix64, giving each draw
// an independent uniform 64-bit value.
func hash(seed, point, n uint64) uint64 {
	x := seed ^ (point+1)*0x9e3779b97f4a7c15 ^ n*0xbf58476d1ce4e5b9
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
