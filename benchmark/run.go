package main

import (
	"fmt"
	"runtime"
	"time"
)

// runConfig is what one repeat needs to know.
type runConfig struct {
	seed uint64
	// scale divides every per-repeat work count; 1 in real runs, 50 in the
	// smoke tests. It is not a flag: the per-repeat work is part of each
	// workload's definition.
	scale  int
	traced bool
}

// repeat is the outcome of one fixed-work unit run in fresh state (fresh VM
// or fresh daemon). Every end-to-end metric is computed per repeat and the
// run reports the median across repeats.
type repeat struct {
	SetupS float64
	WallS  float64 // the measured window
	CPUMs  float64 // getrusage delta over the window
	Iters  int     // workload iterations completed by successful ops

	Attempted int
	Failed    int

	// Small and Large hold the latencies (ms) of successful 1-iteration and
	// 200-iteration ops.
	Small []float64
	Large []float64

	// Counts are the simulated counts a batch repeat must reproduce exactly.
	Counts simCounts
	// Err is what ended the repeat early (nil at the cap); Problems lists
	// failed output checks, an early end among them.
	Err      error
	Problems []string

	// Layer and Spans are filled by traced repeats only.
	Layer map[string]float64
	Spans []Span
}

// simCounts is the determinism oracle: counts, not object-ID hashes, because
// a correct program cannot observe ID reuse and the sweep's free-list order
// at two GC workers is exactly such a reuse.
type simCounts struct {
	Loads, ColdHits, Allocations      uint64
	Cycles, CyclesSelect, CyclesPrune uint64
	Prunes, PrunedRefs                uint64
}

// workloadDef binds a workload name to the code that runs one repeat of it.
type workloadDef struct {
	Name string
	Why  string
	// control, if set, runs once per process before the first repeat and
	// returns failed output checks.
	control func() []string
	// run executes one repeat in fresh state.
	run func(cfg runConfig) repeat
	// setupOnly, if set, times one more set-up and discards it: batch set-up
	// takes milliseconds, so the median needs more samples than repeats.
	setupOnly func() float64
}

var workloads = []workloadDef{
	{
		Name:      wMutatorSteady,
		Why:       "pseudojbb, no leak: mutator fast paths (Load, safepoint poll) do the work, 0 barrier cold hits, no SELECT or PRUNE cycle",
		run:       func(cfg runConfig) repeat { return runBatch(batchSpec{"pseudojbb", true, batchIters}, cfg) },
		setupOnly: func() float64 { return runBatch(batchSpec{"pseudojbb", true, 0}, runConfig{scale: 1}).SetupS },
	},
	{
		Name:      wLeakPrune,
		Why:       "eclipsediff leak under pruning: gc, core, edgetable and the barrier cold path do the work (19% cold loads, ~1363 cycles)",
		control:   leakControl,
		run:       func(cfg runConfig) repeat { return runBatch(batchSpec{"eclipsediff", true, batchIters}, cfg) },
		setupOnly: func() float64 { return runBatch(batchSpec{"eclipsediff", true, 0}, runConfig{scale: 1}).SetupS },
	},
	{
		Name: wServePipelined,
		Why:  "leakd, one queueleak tenant, concurrent pipeline + concurrent mark: K threads share one VM, so safepoints, shards and remark show",
		run:  func(cfg runConfig) repeat { return runServe(servePipelined, cfg) },
	},
	{
		Name: wServeTenants,
		Why:  "leakd, four serial STW queueleak tenants: many VMs, lock + goroutine + watchdog path, no in-VM sharing; a pipeline change must not move it",
		run:  func(cfg runConfig) repeat { return runServe(serveTenants, cfg) },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// minRepeats is the floor the issue sets; more repeats run while the time
// budget lasts. extraSetups is how many discarded set-ups top up setup_s: a
// batch set-up is a millisecond or less, so dozens cost nothing and a median
// of a handful would not hold still.
const (
	minRepeats  = 3
	extraSetups = 40
)

// WorkloadResult is one workload's run: what the child process hands to the
// parent and what results/latest.json stores.
type WorkloadResult struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Repeats   int      `json:"repeats"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Noisy marks a run whose canary spread exceeded noisySpread: a red
	// comparison on a stolen core is not a regression.
	Noisy        bool               `json:"noisy"`
	CanaryMsP50  float64            `json:"canary_ms_p50"`
	CanarySpread float64            `json:"canary_spread"`
	WallS        float64            `json:"wall_s"`
	Metrics      map[string]Summary `json:"metrics"`
}

// runWorkload measures one workload in this process for about `seconds`:
// canary, control, repeats of the fixed-work unit until the budget is spent
// (never fewer than minRepeats), then probes when traced, canary again.
func runWorkload(w workloadDef, cfg runConfig, seconds float64) (WorkloadResult, []Span) {
	res := WorkloadResult{Workload: w.Name, Seed: cfg.seed, Traced: cfg.traced, Metrics: map[string]Summary{}}
	start := time.Now()
	canaries := canarySamples(cfg.scale)

	if w.control != nil {
		res.Problems = append(res.Problems, w.control()...)
	}

	fresh := func(c runConfig) repeat {
		runtime.GC()
		return w.run(c)
	}
	// One discarded eighth-size repeat first: the process's first repeat runs
	// ~10% slow (page faults, Go heap growth) and no later one does.
	warm := cfg
	warm.scale, warm.traced = cfg.scale*8, false
	fresh(warm)

	// The traced pass runs one untraced repeat in the same process, so
	// host.trace_overhead_share compares like with like.
	var reference *repeat
	measureStart := time.Now()
	if cfg.traced {
		plain := cfg
		plain.traced = false
		r := fresh(plain)
		reference = &r
	}
	var reps []repeat
	for len(reps) < minRepeats || time.Since(measureStart).Seconds() < seconds {
		reps = append(reps, fresh(cfg))
	}
	res.Repeats = len(reps)

	setups := make([]float64, 0, len(reps)+extraSetups)
	for _, r := range reps {
		setups = append(setups, r.SetupS)
	}
	if w.setupOnly != nil {
		for i := 0; i < extraSetups/cfg.scale; i++ {
			runtime.GC()
			setups = append(setups, w.setupOnly())
		}
	}

	var probes map[string]float64
	if cfg.traced {
		probes = runProbes(cfg.scale)
	}
	canaries = append(canaries, canarySamples(cfg.scale)...)
	res.CanaryMsP50, res.CanarySpread = canarySummary(canaries)
	res.Noisy = res.CanarySpread > noisySpread

	// Output checks: every repeat's own problems, then cross-repeat
	// determinism of the simulated counts.
	for i, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, p := range r.Problems {
			res.Problems = append(res.Problems, fmt.Sprintf("repeat %d: %s", i, p))
		}
		if r.Counts != reps[0].Counts {
			res.Problems = append(res.Problems, fmt.Sprintf("repeat %d: simulated counts %+v differ from repeat 0's %+v", i, r.Counts, reps[0].Counts))
		}
	}
	if cfg.traced {
		for i, r := range reps {
			if ratio, ok := r.Layer[sumCheckKey]; ok && (ratio < 0.95 || ratio > 1.05) {
				res.Problems = append(res.Problems, fmt.Sprintf("repeat %d: span parts add up to %.3f of the measured wall, want within 5%%", i, ratio))
			}
		}
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0

	if cfg.traced {
		res.Metrics = layerSummaries(reps, reference, probes, res.CanaryMsP50, res.CanarySpread)
	} else {
		res.Metrics = endToEndSummaries(reps, setups)
	}
	res.WallS = time.Since(start).Seconds()
	var spans []Span
	if cfg.traced {
		spans = reps[0].Spans
	}
	return res, spans
}

// endToEndSummaries computes each end-to-end metric per repeat and reduces
// it to the median across repeats.
func endToEndSummaries(reps []repeat, setups []float64) map[string]Summary {
	per := map[string][]float64{}
	samples := map[string]int{}
	add := func(name string, v float64, n int) {
		per[name] = append(per[name], v)
		samples[name] += n
	}
	for _, r := range reps {
		if r.WallS > 0 && r.Iters > 0 {
			add("iters_per_s", float64(r.Iters)/r.WallS, r.Iters)
			add("cpu_ms_per_kiter", r.CPUMs/float64(r.Iters)*1000, r.Iters)
		}
		small, large := sortedCopy(r.Small), sortedCopy(r.Large)
		if len(small) > 0 {
			add("small_p99_ms", percentile(small, supportedPercentile(len(small), 99)), len(small))
		}
		if len(large) > 0 {
			add("large_p50_ms", percentile(large, 50), len(large))
			add("large_p95_ms", percentile(large, supportedPercentile(len(large), 95)), len(large))
		}
	}
	out := map[string]Summary{}
	for name, vals := range per {
		out[name] = summarize(vals, samples[name]/len(vals))
	}
	out["setup_s"] = summarize(setups, 1)
	out["peak_rss_mb"] = summarize([]float64{peakRSSMB()}, 1)
	return out
}

// layerSummaries reduces the traced repeats' per-layer values to medians and
// adds the run-level ones: probes, canary, tracing overhead.
func layerSummaries(reps []repeat, reference *repeat, probes map[string]float64, canaryP50, canarySpread float64) map[string]Summary {
	per := map[string][]float64{}
	var walls []float64
	for _, r := range reps {
		walls = append(walls, r.WallS)
		for k, v := range r.Layer {
			per[k] = append(per[k], v)
		}
		if len(r.Small) > 0 {
			per["client.small_p50_ms"] = append(per["client.small_p50_ms"], percentile(sortedCopy(r.Small), 50))
		}
	}
	out := map[string]Summary{}
	for k, vals := range per {
		out[k] = summarize(vals, 1)
	}
	for k, v := range probes {
		out[k] = summarize([]float64{v}, 1)
	}
	out["host.canary_ms_p50"] = summarize([]float64{canaryP50}, 2*canaryRounds)
	out["host.canary_spread"] = summarize([]float64{canarySpread}, 2*canaryRounds)
	if reference != nil && reference.WallS > 0 {
		traced := summarize(walls, 1).Median
		out["host.trace_overhead_share"] = summarize([]float64{traced/reference.WallS - 1}, len(walls))
	}
	// The contract prints every per-layer metric on every workload; one a
	// workload has no source for reads 0.
	for _, d := range perLayer {
		if _, ok := out[d.Name]; !ok {
			out[d.Name] = Summary{N: 0}
		}
	}
	return out
}

// contractMetrics flattens summaries to the contract's {"value","unit"} map.
func contractMetrics(defs []metricDef, sums map[string]Summary) map[string]Value {
	out := make(map[string]Value, len(defs))
	for _, d := range defs {
		out[d.Name] = Value{Value: sums[d.Name].Median, Unit: d.Unit}
	}
	return out
}
