package harness

import (
	"flag"
	"fmt"
	"slices"
	"sync"
	"testing"

	"leakpruning/internal/faultinject"
)

// matrixSeeds is the campaign's one knob; `make chaos` raises it to 20.
var matrixSeeds = flag.Int("seeds", 3, "fault-matrix seeds per (scenario, workload) cell")

// The sizes every cell runs at; the replay oracles record at the same heap.
const (
	matrixIters = 800
	matrixHeap  = 1 << 20
)

// scenario is one cell of the fault matrix: which points fire, at what
// probability, under which runtime configuration.
type scenario struct {
	name    string
	arms    map[faultinject.Point]float64
	workers int  // tracer parallelism (parallel-only faults need > 1)
	melt    bool // run the disk-offload baseline instead of pruning
	// markMode overrides the ModeNormal closure strategy ("" = stw).
	markMode string
	// equivalent marks faults the degradation machinery must hide
	// completely: the run is required to match the control bit-for-bit in
	// iterations and end reason.
	equivalent bool
	// hashCheck strengthens equivalence to per-cycle granularity: the run
	// records a live-set hash plus SELECT/PRUNE decision counts inside
	// every collection's final pause, and each cycle must match the
	// fully-STW fault-free control, at the same worker count,
	// cycle-for-cycle. The stale closure is serial, so stale bytes do not
	// depend on the worker count.
	hashCheck bool
}

// scenarios is the matrix. FinalizerPanic has no row and no share of
// "everything": no micro-leak workload registers a finalizer, so the point
// is never drawn here; internal/vm's TestInjectedFinalizerPanicStorm and
// TestFinalizerPanicDoesNotAbortCollection carry it.
func scenarios() []scenario {
	all := map[faultinject.Point]float64{
		faultinject.TraceWorkerPanic:        0.02,
		faultinject.TraceWatchdogTrip:       0.01,
		faultinject.ShardFreeListCorruption: 0.02,
		faultinject.AllocLimitRace:          0.01,
		faultinject.EdgeTableOverflow:       0.05,
		faultinject.SafepointStall:          0.05,
	}
	return []scenario{
		{name: "control", workers: 4},
		// The STW tracer faults degrade PRUNE and SELECT cycles too: each
		// cycle must match the control's hash and decision counts.
		{name: "trace-panic", workers: 4, equivalent: true, hashCheck: true,
			arms: map[faultinject.Point]float64{faultinject.TraceWorkerPanic: 0.05}},
		{name: "watchdog-trip", workers: 4, equivalent: true, hashCheck: true,
			arms: map[faultinject.Point]float64{faultinject.TraceWatchdogTrip: 0.05}},
		{name: "freelist-corruption", workers: 1,
			arms: map[faultinject.Point]float64{faultinject.ShardFreeListCorruption: 0.05}},
		{name: "alloc-limit-race", workers: 1,
			arms: map[faultinject.Point]float64{faultinject.AllocLimitRace: 0.02}},
		{name: "edge-overflow", workers: 1,
			arms: map[faultinject.Point]float64{faultinject.EdgeTableOverflow: 0.2}},
		{name: "offload-io", workers: 1, melt: true,
			arms: map[faultinject.Point]float64{
				faultinject.OffloadWriteFault: 0.05,
				faultinject.OffloadReadFault:  0.02,
			}},
		// Stretch the safepoint ragged barrier on both sides (collector slow
		// to observe the stop, mutators slow to park). The delays are
		// semantics-free, so the run must match the fault-free control.
		{name: "safepoint-stall", workers: 4, equivalent: true,
			arms: map[faultinject.Point]float64{faultinject.SafepointStall: 0.2}},
		// Mostly-concurrent marking, fault-free: the mark mode must be
		// invisible to program semantics (identical iterations, end reason,
		// and per-collection audits against the fully-STW control).
		{name: "concurrent-mark", workers: 2, markMode: "concurrent", equivalent: true},
		// Concurrent marking with SATB buffer loss injected: every detected
		// drop must degrade the remark to a fresh fully-STW closure that
		// reproduces the control's live sets exactly.
		{name: "concurrent-satb-drop", workers: 2, markMode: "concurrent", equivalent: true,
			arms: map[faultinject.Point]float64{faultinject.SATBBarrierDrop: 0.5}},
		// A remark pause that is slow to finish: semantics-free delay, so the
		// run must still match the control bit-for-bit.
		{name: "concurrent-remark-stall", workers: 2, markMode: "concurrent", equivalent: true,
			arms: map[faultinject.Point]float64{faultinject.RemarkStall: 0.5}},
		// Tracer faults inside the concurrent closure: the remark degrades
		// to the serial closure exactly as an STW cycle does, with the same
		// cause and counters.
		{name: "concurrent-trace-panic", workers: 2, markMode: "concurrent", equivalent: true,
			arms: map[faultinject.Point]float64{faultinject.TraceWorkerPanic: 0.05}},
		{name: "concurrent-watchdog-trip", workers: 2, markMode: "concurrent", equivalent: true,
			arms: map[faultinject.Point]float64{faultinject.TraceWatchdogTrip: 0.05}},
		// Concurrent SELECT/PRUNE against the frozen staleness snapshot:
		// every cycle mode runs mostly-concurrently, with the PRUNE
		// final-remark stall fault armed on every draw (semantics-free
		// delay). Per-cycle live-set hashes, candidate counts, and prune
		// decisions must match the fully-STW control byte-for-byte.
		{name: "concurrent-select", workers: 1, markMode: "concurrent",
			equivalent: true, hashCheck: true,
			arms: map[faultinject.Point]float64{faultinject.PruneRemarkStall: 1.0}},
		// Unresolvable snapshot drift injected on every SELECT/PRUNE final
		// remark (plus the stall): every such cycle must clear the mark
		// bitmap and degrade to the serial STW closure, reproducing the
		// oracle's live sets and prune decisions exactly.
		{name: "concurrent-prune-degrade", workers: 1, markMode: "concurrent",
			equivalent: true, hashCheck: true,
			arms: map[faultinject.Point]float64{
				faultinject.SelectSnapshotDrift: 1.0,
				faultinject.PruneRemarkStall:    1.0,
			}},
		{name: "everything", workers: 4, arms: all},
	}
}

// unreached names, per workload, the points no run of it can draw, each for
// a property of the workload. The draw clause exempts exactly these pairs,
// and fails when one is drawn after all, so the list cannot go stale.
var unreached = map[string][]faultinject.Point{
	// Never reads what it leaks: nothing is faulted back in from disk.
	"listleak": {faultinject.OffloadReadFault},
	// Its growth is live (it dies of a real OOM): no cycle reaches PRUNE.
	"dualleak": {faultinject.PruneRemarkStall},
}

// control is what an equivalent scenario's runs are compared against: the
// numbers of a fault-free run, not its VM.
type control struct {
	iterations int
	reason     EndReason
	cycles     []GCSample
}

// TestFaultMatrix is the fault-injection campaign: every §6 micro-leak
// workload under a matrix of injected-fault scenarios across seeds, with
// the full heap invariant audit enabled after every collection. It is the
// repo's end-to-end robustness oracle:
//
//   - no run may report an invariant-audit violation;
//   - no run may end with anything but a typed VM error (Run returns an
//     error only when a raw panic or an unclassified error escaped the VM
//     API);
//   - scenarios whose faults are semantics-preserving (recovered trace
//     worker panics, watchdog-forced serial fallback) must reproduce the
//     fault-free control run's iteration count and end reason exactly;
//   - every armed point must be drawn at least once over a cell's seeds: a
//     cell whose workload never reaches the fault site re-runs the control
//     under another name, and fails instead of passing.
func TestFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("the matrix is seconds of single-core work, minutes under the race detector")
	}
	scens := scenarios()

	// Fault-free control runs, one per (workload, workers[, hash]) shape,
	// are the equivalence oracle for the semantics-preserving scenarios.
	// Each runs once, in the first cell that asks for it.
	controls := map[string]func() (control, error){}
	for _, s := range scens {
		if !s.equivalent {
			continue
		}
		for _, w := range microLeaks {
			key := controlKey(w, s)
			if controls[key] != nil {
				continue
			}
			cfg := controlConfig(w, s)
			controls[key] = sync.OnceValues(func() (control, error) {
				res, err := Run(cfg)
				return control{res.Iterations, res.Reason, res.GCSamples}, err
			})
		}
	}

	for _, s := range scens {
		for _, w := range microLeaks {
			t.Run(s.name+"/"+w, func(t *testing.T) {
				t.Parallel()
				n := *matrixSeeds
				if len(s.arms) == 0 {
					n = 1 // fault-free scenario: seeds are indistinguishable
				}
				var draws [faultinject.NumPoints]uint64
				for i := 0; i < n; i++ {
					runOne(t, s, w, uint64(i+1), controls[controlKey(w, s)], &draws)
				}
				for p := range s.arms {
					switch exempt := slices.Contains(unreached[w], p); {
					case draws[p] == 0 && !exempt:
						t.Errorf("%s is armed but was never drawn in %d seeds: the cell is vacuous", p, n)
					case draws[p] > 0 && exempt:
						t.Errorf("%s is listed as unreached by %s but was drawn %d times", p, w, draws[p])
					}
				}
			})
		}
	}
}

// controlConfig is the fault-free STW run a scenario's cell starts from, and
// an equivalent scenario's cell is compared against.
func controlConfig(workload string, s scenario) Config {
	return Config{
		Program:      workload,
		Policy:       "default",
		HeapLimit:    matrixHeap,
		MaxIters:     matrixIters,
		GCWorkers:    s.workers,
		AuditEveryGC: true,
		HashLiveSet:  s.hashCheck,
	}
}

// runOne runs one seed of one cell against every oracle clause and adds the
// injector's per-point draw counts to draws.
func runOne(t *testing.T, s scenario, workload string, seed uint64,
	ctrlRun func() (control, error), draws *[faultinject.NumPoints]uint64) {
	cfg := controlConfig(workload, s)
	if s.melt {
		cfg.Policy = "melt"
	}
	cfg.MarkMode = s.markMode
	if len(s.arms) > 0 {
		inj := faultinject.New(seed)
		for p, prob := range s.arms {
			inj.Arm(p, prob)
		}
		cfg.Injector = inj
	}

	res, err := Run(cfg)
	for p := range s.arms {
		draws[p] += cfg.Injector.Draws(p)
	}
	if err != nil {
		// The harness only errors on non-typed failures: a raw panic or an
		// unclassified error escaped the VM API.
		t.Errorf("seed %d: escape: %v", seed, err)
		return
	}
	if res.VMStats.AuditViolations > 0 {
		t.Errorf("seed %d: %d audit violations, last audit: %v", seed, res.VMStats.AuditViolations, res.AuditReport)
	}
	if st := res.VMStats; len(s.arms) == 1 && s.arms[faultinject.TraceWatchdogTrip] > 0 &&
		(st.DegradedTraces == 0 || st.WatchdogAborts != st.DegradedTraces) {
		// Only the trip is armed, so every degraded cycle is a watchdog abort.
		t.Errorf("seed %d: %d watchdog aborts over %d degraded traces, want equal and > 0",
			seed, st.WatchdogAborts, st.DegradedTraces)
	}

	if s.equivalent {
		ctrl, err := ctrlRun()
		if err != nil {
			t.Fatalf("control run %s failed: %v", controlKey(workload, s), err)
		}
		if res.Iterations != ctrl.iterations || res.Reason != ctrl.reason {
			t.Errorf("seed %d: got %d iterations ending %s, control ran %d ending %s",
				seed, res.Iterations, res.Reason, ctrl.iterations, ctrl.reason)
		} else if s.hashCheck {
			if mismatch := compareCycles(res.GCSamples, ctrl.cycles); mismatch != "" {
				t.Errorf("seed %d: %s", seed, mismatch)
			}
		}
	}
}

// controlKey names the control-run cell a scenario is compared against.
// Hash-check scenarios get their own control: it carries the per-cycle
// live-set hashes (HashLiveSet) the comparison keys on.
func controlKey(workload string, s scenario) string {
	key := fmt.Sprintf("%s/%d", workload, s.workers)
	if s.hashCheck {
		key += "/hash"
	}
	return key
}

// compareCycles checks a hash-check run's per-cycle record — mode,
// post-cycle live-set hash, SELECT candidate count, PRUNE poison count —
// against the STW control's, returning a mismatch description or "".
func compareCycles(got, want []GCSample) string {
	if len(got) == 0 || len(got) != len(want) {
		return fmt.Sprintf("ran %d collections, control ran %d", len(got), len(want))
	}
	for i := range got {
		g, c := got[i], want[i]
		if g.Mode != c.Mode || g.LiveHash != c.LiveHash ||
			g.Candidates != c.Candidates || g.Pruned != c.Pruned {
			return fmt.Sprintf(
				"cycle %d: got (%s live=%016x cands=%d pruned=%d), control (%s live=%016x cands=%d pruned=%d)",
				i, g.Mode, g.LiveHash, g.Candidates, g.Pruned,
				c.Mode, c.LiveHash, c.Candidates, c.Pruned)
		}
	}
	return ""
}
