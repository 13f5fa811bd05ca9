// Command chaos runs the fault-injection campaign: every §6 micro-leak
// workload under a matrix of injected-fault scenarios across many seeds,
// with the full heap invariant audit enabled after every collection. It is
// the repo's end-to-end robustness oracle:
//
//   - no run may report an invariant-audit violation;
//   - no run may end with anything but a typed VM error (raw panics
//     escaping the VM API fail the harness and are counted as escapes);
//   - scenarios whose faults are semantics-preserving (recovered trace
//     worker panics, watchdog-forced serial fallback) must reproduce the
//     fault-free control run's iteration count and end reason exactly.
//
// Usage:
//
//	go run ./cmd/chaos -seeds 20 -o results/CHAOS_report.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/harness"
	"leakpruning/internal/obs"
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
	// fully-STW fault-free control cycle-for-cycle. Workers must be 1:
	// stale-byte attribution is claim-order dependent across workers.
	hashCheck bool
}

func scenarios() []scenario {
	all := map[faultinject.Point]float64{
		faultinject.TraceWorkerPanic:        0.02,
		faultinject.TraceWatchdogTrip:       0.01,
		faultinject.ShardFreeListCorruption: 0.02,
		faultinject.AllocLimitRace:          0.01,
		faultinject.FinalizerPanic:          0.5,
		faultinject.EdgeTableOverflow:       0.05,
		faultinject.SafepointStall:          0.05,
	}
	return []scenario{
		{name: "control", workers: 4},
		{name: "trace-panic", workers: 4, equivalent: true,
			arms: map[faultinject.Point]float64{faultinject.TraceWorkerPanic: 0.05}},
		{name: "watchdog-trip", workers: 4, equivalent: true,
			arms: map[faultinject.Point]float64{faultinject.TraceWatchdogTrip: 0.05}},
		{name: "freelist-corruption", workers: 1,
			arms: map[faultinject.Point]float64{faultinject.ShardFreeListCorruption: 0.05}},
		{name: "alloc-limit-race", workers: 1,
			arms: map[faultinject.Point]float64{faultinject.AllocLimitRace: 0.02}},
		{name: "finalizer-panic", workers: 1,
			arms: map[faultinject.Point]float64{faultinject.FinalizerPanic: 0.8}},
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
		// Concurrent SELECT/PRUNE against the frozen staleness snapshot:
		// every cycle mode runs mostly-concurrently, with the PRUNE
		// final-remark stall fault armed on every draw (semantics-free
		// delay). Per-cycle live-set hashes, candidate counts, and prune
		// decisions must match the fully-STW control byte-for-byte.
		{name: "concurrent-select", workers: 1, markMode: "concurrent",
			equivalent: true, hashCheck: true,
			arms: map[faultinject.Point]float64{faultinject.PruneRemarkStall: 1.0}},
		// Unresolvable snapshot drift injected on every SELECT/PRUNE final
		// remark (plus the stall): every such cycle must bump the epoch and
		// degrade to the serial STW closure, reproducing the oracle's live
		// sets and prune decisions exactly.
		{name: "concurrent-prune-degrade", workers: 1, markMode: "concurrent",
			equivalent: true, hashCheck: true,
			arms: map[faultinject.Point]float64{
				faultinject.SelectSnapshotDrift: 1.0,
				faultinject.PruneRemarkStall:    1.0,
			}},
		{name: "everything", workers: 4, arms: all},
	}
}

type runRecord struct {
	Workload   string  `json:"workload"`
	Scenario   string  `json:"scenario"`
	Seed       uint64  `json:"seed"`
	Iterations int     `json:"iterations"`
	Reason     string  `json:"reason"`
	DurationMs float64 `json:"duration_ms"`

	Collections          uint64 `json:"collections"`
	DegradedTraces       uint64 `json:"degraded_traces"`
	RecoveredTracePanics uint64 `json:"recovered_trace_panics"`
	WatchdogAborts       uint64 `json:"watchdog_aborts"`
	FinalizerPanics      uint64 `json:"finalizer_panics"`
	FreeListRepairs      uint64 `json:"free_list_repairs"`
	EdgeTableOverflows   uint64 `json:"edge_table_overflows"`
	PrunedEdgeOverflows  uint64 `json:"pruned_edge_overflows"`
	KeptInHeap           uint64 `json:"kept_in_heap,omitempty"`
	ReadAborts           uint64 `json:"read_aborts,omitempty"`

	AuditsRun       uint64   `json:"audits_run"`
	AuditViolations uint64   `json:"audit_violations"`
	Violations      []string `json:"violations,omitempty"`

	// Daemon (leakd-*) scenarios only.
	Evictions   uint64 `json:"evictions,omitempty"`
	Quarantines uint64 `json:"quarantines,omitempty"`

	// HashCheckedCycles counts the collections whose live-set hashes and
	// SELECT/PRUNE decisions were compared against the STW control
	// (hash-check scenarios only).
	HashCheckedCycles int `json:"hash_checked_cycles,omitempty"`

	Escape              string `json:"escape,omitempty"`
	EquivalenceMismatch string `json:"equivalence_mismatch,omitempty"`
}

type report struct {
	Seeds     int      `json:"seeds"`
	Workloads []string `json:"workloads"`
	Scenarios []string `json:"scenarios"`
	MaxIters  int      `json:"max_iters"`
	HeapLimit uint64   `json:"heap_limit"`

	TotalRuns             int         `json:"total_runs"`
	TotalCollections      uint64      `json:"total_collections"`
	TotalDegradedTraces   uint64      `json:"total_degraded_traces"`
	TotalFaultRecoveries  uint64      `json:"total_fault_recoveries"`
	AuditViolationRuns    int         `json:"audit_violation_runs"`
	EscapeRuns            int         `json:"escape_runs"`
	EquivalenceMismatches int         `json:"equivalence_mismatches"`
	OK                    bool        `json:"ok"`
	Runs                  []runRecord `json:"runs"`
}

func main() {
	seeds := flag.Int("seeds", 20, "seeds per (workload, scenario) cell")
	workloadsFlag := flag.String("workloads", "listleak,swapleak,dualleak",
		"comma-separated workload names")
	iters := flag.Int("iters", 3000, "iteration cap per run")
	heapLimit := flag.Uint64("heap", 1<<20, "simulated heap bytes per run")
	out := flag.String("o", "results/CHAOS_report.json", "report path")
	obsDir := flag.String("obs-dir", "", "write trace/metrics artifacts for the seed-1 control and everything runs (empty = off)")
	verbose := flag.Bool("v", false, "log every run")
	flag.Parse()

	workloads := strings.Split(*workloadsFlag, ",")
	scens := scenarios()
	rep := report{
		Seeds:     *seeds,
		Workloads: workloads,
		MaxIters:  *iters,
		HeapLimit: *heapLimit,
	}
	for _, s := range scens {
		rep.Scenarios = append(rep.Scenarios, s.name)
	}
	rep.Scenarios = append(rep.Scenarios, leakdScenarioNames()...)
	rep.Scenarios = append(rep.Scenarios, traceReplayScenarioNames()...)

	start := time.Now()
	// Fault-free control runs, one per (workload, workers[, hash]) shape,
	// are the equivalence oracle for the semantics-preserving scenarios.
	controls := map[string]harness.Result{}
	for _, s := range scens {
		if !s.equivalent {
			continue
		}
		for _, w := range workloads {
			key := controlKey(w, s)
			if _, ok := controls[key]; ok {
				continue
			}
			cfg := controlConfig(w, s.workers, *iters, *heapLimit)
			cfg.HashLiveSet = s.hashCheck
			res, err := harness.Run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chaos: control run %s failed: %v\n", key, err)
				os.Exit(1)
			}
			res.VM = nil // only the numbers are compared; do not pin every control's heap
			controls[key] = res
		}
	}

	for _, s := range scens {
		for _, w := range workloads {
			n := *seeds
			if len(s.arms) == 0 {
				n = 1 // fault-free scenario: seeds are indistinguishable
			}
			for i := 0; i < n; i++ {
				seed := uint64(i + 1)
				rec := runOne(s, w, seed, *iters, *heapLimit, *obsDir, controls)
				if *verbose {
					fmt.Printf("%-20s %-10s seed %2d: %d iters, %s (%d audits, %d degraded)\n",
						s.name, w, seed, rec.Iterations, rec.Reason, rec.AuditsRun, rec.DegradedTraces)
				}
				rep.Runs = append(rep.Runs, rec)
				rep.TotalRuns++
				rep.TotalCollections += rec.Collections
				rep.TotalDegradedTraces += rec.DegradedTraces
				rep.TotalFaultRecoveries += rec.RecoveredTracePanics + rec.FinalizerPanics + rec.FreeListRepairs
				if rec.AuditViolations > 0 {
					rep.AuditViolationRuns++
				}
				if rec.Escape != "" {
					rep.EscapeRuns++
				}
				if rec.EquivalenceMismatch != "" {
					rep.EquivalenceMismatches++
				}
			}
		}
	}

	// Daemon-level scenarios: faults in one tenant, sibling live-set hashes
	// compared byte-for-byte against a fault-free control daemon.
	for _, rec := range runLeakdScenarios(*seeds, *verbose) {
		rep.Runs = append(rep.Runs, rec)
		rep.TotalRuns++
		if rec.AuditViolations > 0 {
			rep.AuditViolationRuns++
		}
		if rec.Escape != "" {
			rep.EscapeRuns++
		}
		if rec.EquivalenceMismatch != "" {
			rep.EquivalenceMismatches++
		}
	}

	// Record/replay scenarios: each workload recorded fault-free, replayed
	// ×1 (cycle-exact against the recording) and ×4 (audit-clean).
	for _, rec := range runTraceReplayScenarios(workloads, *iters, *heapLimit, *verbose) {
		rep.Runs = append(rep.Runs, rec)
		rep.TotalRuns++
		rep.TotalCollections += rec.Collections
		if rec.AuditViolations > 0 {
			rep.AuditViolationRuns++
		}
		if rec.Escape != "" {
			rep.EscapeRuns++
		}
		if rec.EquivalenceMismatch != "" {
			rep.EquivalenceMismatches++
		}
	}

	rep.OK = rep.AuditViolationRuns == 0 && rep.EscapeRuns == 0 && rep.EquivalenceMismatches == 0
	if err := writeReport(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("chaos: %d runs (%d collections, %d degraded traces, %d fault recoveries) in %v\n",
		rep.TotalRuns, rep.TotalCollections, rep.TotalDegradedTraces, rep.TotalFaultRecoveries,
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("chaos: %d audit-violation runs, %d escapes, %d equivalence mismatches -> %s\n",
		rep.AuditViolationRuns, rep.EscapeRuns, rep.EquivalenceMismatches, verdict(rep.OK))
	if !rep.OK {
		os.Exit(1)
	}
}

func verdict(ok bool) string {
	if ok {
		return "OK"
	}
	return "FAIL"
}

func controlConfig(workload string, workers, iters int, heapLimit uint64) harness.Config {
	return harness.Config{
		Program:      workload,
		Policy:       "default",
		HeapLimit:    heapLimit,
		MaxIters:     iters,
		GCWorkers:    workers,
		AuditEveryGC: true,
	}
}

func runOne(s scenario, workload string, seed uint64, iters int, heapLimit uint64,
	obsDir string, controls map[string]harness.Result) runRecord {
	rec := runRecord{Workload: workload, Scenario: s.name, Seed: seed}

	cfg := controlConfig(workload, s.workers, iters, heapLimit)
	if s.melt {
		cfg.Policy = "melt"
	}
	cfg.MarkMode = s.markMode
	cfg.HashLiveSet = s.hashCheck
	if len(s.arms) > 0 {
		inj := faultinject.New(seed)
		for p, prob := range s.arms {
			inj.Arm(p, prob)
		}
		cfg.Injector = inj
	}
	// Artifacts for the boundary scenarios only: the clean control and the
	// all-faults run, first seed, so CI uploads a readable pair per workload
	// instead of hundreds of trace files.
	if obsDir != "" && seed == 1 && (s.name == "control" || s.name == "everything") {
		cfg.Obs = obs.New()
	}

	t0 := time.Now()
	res, err := harness.Run(cfg)
	rec.DurationMs = float64(time.Since(t0).Microseconds()) / 1000
	if cfg.Obs != nil {
		tag := fmt.Sprintf("chaos_%s_%s", s.name, workload)
		if _, _, werr := obs.WriteArtifacts(cfg.Obs, obsDir, tag); werr != nil {
			fmt.Fprintf(os.Stderr, "chaos: obs artifacts for %s: %v\n", tag, werr)
		}
	}
	if err != nil {
		// The harness only errors on non-typed failures: a raw panic or an
		// unclassified error escaped the VM API.
		rec.Escape = err.Error()
		return rec
	}

	rec.Iterations = res.Iterations
	rec.Reason = string(res.Reason)
	rec.Collections = res.VMStats.Collections
	rec.DegradedTraces = res.VMStats.DegradedTraces
	rec.RecoveredTracePanics = res.VMStats.RecoveredTracePanics
	rec.WatchdogAborts = res.VMStats.WatchdogAborts
	rec.FinalizerPanics = res.VMStats.FinalizerPanics
	rec.FreeListRepairs = res.VMStats.FreeListRepairs
	rec.EdgeTableOverflows = res.VMStats.EdgeTableOverflows
	rec.PrunedEdgeOverflows = res.VMStats.PrunedEdgeOverflows
	rec.KeptInHeap = res.Offload.KeptInHeap
	rec.ReadAborts = res.Offload.ReadAborts
	rec.AuditsRun = res.VMStats.AuditsRun
	rec.AuditViolations = res.VMStats.AuditViolations
	if res.VMStats.AuditViolations > 0 {
		rec.Violations = res.AuditReport
	}

	if s.equivalent {
		ctrl := controls[controlKey(workload, s)]
		if res.Iterations != ctrl.Iterations || res.Reason != ctrl.Reason {
			rec.EquivalenceMismatch = fmt.Sprintf(
				"got %d iterations ending %s, control ran %d ending %s",
				res.Iterations, res.Reason, ctrl.Iterations, ctrl.Reason)
		}
		if s.hashCheck && rec.EquivalenceMismatch == "" {
			rec.HashCheckedCycles = len(res.GCSamples)
			rec.EquivalenceMismatch = compareCycles(res.GCSamples, ctrl.GCSamples)
		}
	}
	return rec
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
func compareCycles(got, want []harness.GCSample) string {
	if len(got) != len(want) {
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

func writeReport(path string, rep report) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
