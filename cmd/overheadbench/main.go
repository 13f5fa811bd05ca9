// Command overheadbench regenerates the paper's overhead experiments (§5):
//
//	overheadbench -fig 6    # run-time read-barrier overhead per benchmark,
//	                        # two barrier shapes (the paper's two platforms)
//	overheadbench -fig 7    # normalized GC time vs. heap size for the
//	                        # Base / Observe / Select configurations
//	overheadbench -compile  # compile-time and code-size cost of inserting
//	                        # read barriers (the jitsim experiment)
//	overheadbench -elision  # tier-1 barrier elision: sites removed,
//	                        # compile-time delta, modelled mutator recovery
//	                        # (writes BENCH_jit_elision.json)
//
// The -compile and -elision modes emit machine-readable JSON (-json / -o)
// with the pre-change baseline embedded, so both the barrier tax and the
// tier-1 recovery stay tracked numbers.
//
// The non-leaking benchmark suite stands in for DaCapo/pseudojbb/SPECjvm98;
// absolute times differ from the paper's hardware, but the measured
// quantities are the same relative overheads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"leakpruning/internal/harness"
	"leakpruning/internal/jitsim"
	"leakpruning/internal/stats"
	"leakpruning/internal/workload"
)

func main() {
	var (
		fig     = flag.Int("fig", 0, "regenerate figure 6 or 7")
		compile = flag.Bool("compile", false, "measure compilation overhead of barrier insertion")
		elision = flag.Bool("elision", false, "measure tier-1 barrier elision and write the JSON artifact")
		iters   = flag.Int("iters", 600, "iterations per benchmark run")
		trials  = flag.Int("trials", 5, "trials per configuration (median reported)")
		methods = flag.Int("methods", 40, "corpus methods per benchmark (-elision)")
		opsPer  = flag.Int("ops", 300, "ops per corpus method (-elision)")
		reps    = flag.Int("reps", 2, "executions per method per replay iteration (-elision)")
		jsonOut = flag.String("json", "", "write the -compile report as JSON to this path ('-' for stdout)")
		out     = flag.String("o", "BENCH_jit_elision.json", "output path for -elision ('-' for stdout)")
	)
	flag.Parse()

	switch {
	case *fig == 6:
		figure6(*iters, *trials)
	case *fig == 7:
		figure7(*iters, *trials)
	case *compile:
		compileOverhead(*trials, *jsonOut)
	case *elision:
		elisionReport(*methods, *opsPer, *reps, *out)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// writeJSON marshals v to path ('-' = stdout).
func writeJSON(v any, path string) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err)
	}
	data = append(data, '\n')
	if path == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "overheadbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "overheadbench: wrote %s\n", path)
}

// runtimeOf runs one benchmark configuration and returns total mutator +
// collector time.
func runtimeOf(name string, iters int, cfg harness.Config) time.Duration {
	cfg.Program = name
	cfg.Policy = "off"
	cfg.MaxIters = iters
	res, err := harness.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !res.Capped() {
		fmt.Fprintf(os.Stderr, "overheadbench: %s died unexpectedly: %s (%v)\n", name, res.Reason, res.Err)
		os.Exit(1)
	}
	return res.Duration
}

// bestRuntime takes the minimum over trials: the least-perturbed
// observation of a deterministic workload.
func bestRuntime(name string, iters, trials int, cfg harness.Config) float64 {
	var xs []float64
	for i := 0; i < trials; i++ {
		xs = append(xs, float64(runtimeOf(name, iters, cfg)))
	}
	return stats.Min(xs)
}

// figure6 measures the run-time overhead of read barriers: each benchmark
// runs with barriers compiled out (baseline) and with barriers in while the
// controller is forced into the SELECT state continuously, exactly the
// paper's methodology ("even though these benchmarks do not leak memory, we
// force leak pruning to be in the SELECT state continuously").
func figure6(iters, trials int) {
	fmt.Println("Figure 6: run-time overhead of leak pruning (barriers + forced SELECT)")
	fmt.Println("(paper: 5% average on Pentium 4, 3% on Core 2; here the two 'platforms'")
	fmt.Println(" are the conditional and unconditional barrier implementations)")
	fmt.Println()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Benchmark\tconditional %\tunconditional %")
	var cond, uncond []float64
	for _, name := range workload.MicroBenchNames() {
		base := bestRuntime(name, iters, trials, harness.Config{BarriersOff: true})
		c := bestRuntime(name, iters, trials, harness.Config{ForceState: "select", BarrierVariant: "conditional"})
		u := bestRuntime(name, iters, trials, harness.Config{ForceState: "select", BarrierVariant: "unconditional"})
		co := stats.Overhead(c, base)
		uo := stats.Overhead(u, base)
		cond = append(cond, c/base)
		uncond = append(uncond, u/base)
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\n", name, co, uo)
	}
	fmt.Fprintf(w, "geomean\t%.1f\t%.1f\n",
		(stats.GeoMean(cond)-1)*100, (stats.GeoMean(uncond)-1)*100)
	w.Flush()
}

// figure7 measures normalized GC time across heap sizes 1.5x–5x each
// benchmark's minimum for the Base, Observe, and Select configurations.
func figure7(iters, trials int) {
	multipliers := []float64{1.5, 2, 3, 4, 5}
	fmt.Println("Figure 7: geometric mean of normalized GC time across heap sizes")
	fmt.Println("(paper: Observe adds up to 5%, Select up to 9% more, total up to 14%)")
	fmt.Println()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Heap multiplier\tBase\tObserve\tSelect")

	gcTime := func(name string, heap uint64, force string) float64 {
		var xs []float64
		for i := 0; i < trials; i++ {
			cfg := harness.Config{Program: name, Policy: "off", MaxIters: iters, HeapLimit: heap, ForceState: force}
			res, err := harness.Run(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			xs = append(xs, float64(res.VMStats.GCTime))
		}
		return stats.Min(xs)
	}

	for _, mult := range multipliers {
		var obsRatios, selRatios []float64
		for _, name := range workload.MicroBenchNames() {
			prog, err := workload.New(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			sizer, ok := prog.(workload.Sizer)
			if !ok {
				continue
			}
			heap := uint64(float64(sizer.MinHeap()) * mult)
			base := gcTime(name, heap, "")
			obs := gcTime(name, heap, "observe")
			sel := gcTime(name, heap, "select")
			if base > 0 {
				obsRatios = append(obsRatios, obs/base)
				selRatios = append(selRatios, sel/base)
			}
		}
		fmt.Fprintf(w, "%.1fx\t1.000\t%.3f\t%.3f\n",
			mult, stats.GeoMean(obsRatios), stats.GeoMean(selRatios))
	}
	w.Flush()
}

// baselinePreElision pins the numbers this PR starts from, measured at the
// seed commit with the tier-0 always-barrier compile (overheadbench
// -compile, 5 trials): compile-time geomean +19.6%, code size +10.2%. The
// paper reports +17% / +10% on its hardware (§5). Elision is judged against
// these, not against whatever the tree produces after further changes.
type baselinePreElision struct {
	CompileTimeOverheadPct float64 `json:"compile_time_overhead_pct"`
	CodeSizeOverheadPct    float64 `json:"code_size_overhead_pct"`
	PaperCompileTimePct    float64 `json:"paper_compile_time_pct"`
	PaperCodeSizePct       float64 `json:"paper_code_size_pct"`
	Note                   string  `json:"note"`
}

func preElisionBaseline() baselinePreElision {
	return baselinePreElision{
		CompileTimeOverheadPct: 19.6,
		CodeSizeOverheadPct:    10.2,
		PaperCompileTimePct:    17,
		PaperCodeSizePct:       10,
		Note:                   "tier-0 always-barrier compile measured at this PR's seed; paper values from §5",
	}
}

// mutatorModel carries the measured per-load costs the elision report uses
// to model mutator recovery. The two numbers are one recorded run of
// BenchmarkMutatorOps in internal/vm (op=load, obs=false, threads=1,
// barriers off and on); benchmark/'s vm.load_ns is the live equivalent.
type mutatorModel struct {
	LoadBarriersOffNs float64 `json:"load_barriers_off_ns"`
	LoadBarriersOnNs  float64 `json:"load_barriers_on_ns"`
	Source            string  `json:"source"`
}

func measuredMutatorModel() mutatorModel {
	return mutatorModel{
		LoadBarriersOffNs: 30.42659902572632,
		LoadBarriersOnNs:  31.112364768981934,
		Source:            "internal/vm BenchmarkMutatorOps op=load obs=false threads=1, barriers=false/true",
	}
}

type compileRow struct {
	Benchmark        string  `json:"benchmark"`
	CompileTimePct   float64 `json:"compile_time_pct"`
	CodeSizePct      float64 `json:"code_size_pct"`
	BarrierSites     int     `json:"barrier_sites"`
	ScheduleCostIncr int     `json:"schedule_cost_increase"`
}

type compileReport struct {
	Baseline          baselinePreElision `json:"baseline_pre_elision"`
	Benchmarks        []compileRow       `json:"benchmarks"`
	GeomeanTimePct    float64            `json:"geomean_compile_time_pct"`
	GeomeanSizePct    float64            `json:"geomean_code_size_pct"`
	TrialsPerConfig   int                `json:"trials_per_config"`
	CorpusMethods     int                `json:"corpus_methods"`
	CorpusOpsPerMeth  int                `json:"corpus_ops_per_method"`
	MeasurementPolicy string             `json:"measurement_policy"`
}

// compileOverhead reproduces §5's compilation measurements: inserting read
// barriers bloats the IR, adding to compile time (paper: +17% average, +34%
// max) and code size (+10% average, +15% max). With -json it also emits a
// machine-readable report carrying the pre-change baseline.
func compileOverhead(trials int, jsonOut string) {
	fmt.Println("Compilation overhead of read-barrier insertion (jitsim)")
	fmt.Println("(paper: +17% compile time on average, at most +34%; +10% code size, at most +15%)")
	fmt.Println()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Benchmark\tcompile time %\tcode size %\tbarrier sites")
	rep := compileReport{
		Baseline:          preElisionBaseline(),
		TrialsPerConfig:   trials,
		CorpusMethods:     400,
		CorpusOpsPerMeth:  400,
		MeasurementPolicy: "min over trials per configuration",
	}
	var timeRatios, sizeRatios []float64
	for _, name := range workload.MicroBenchNames() {
		corpus := jitsim.Corpus(name, 400, 400)
		var tn, tb []float64
		var plain, barrier jitsim.SuiteStats
		for i := 0; i < trials; i++ {
			plain = jitsim.CompileCorpus(name, &jitsim.Compiler{}, corpus)
			barrier = jitsim.CompileCorpus(name, &jitsim.Compiler{InsertReadBarriers: true}, corpus)
			tn = append(tn, float64(plain.CompileTime))
			tb = append(tb, float64(barrier.CompileTime))
		}
		timeOv := stats.Overhead(stats.Min(tb), stats.Min(tn))
		sizeOv := stats.Overhead(float64(barrier.CodeBytes), float64(plain.CodeBytes))
		timeRatios = append(timeRatios, stats.Min(tb)/stats.Min(tn))
		sizeRatios = append(sizeRatios, float64(barrier.CodeBytes)/float64(plain.CodeBytes))
		rep.Benchmarks = append(rep.Benchmarks, compileRow{
			Benchmark:        name,
			CompileTimePct:   timeOv,
			CodeSizePct:      sizeOv,
			BarrierSites:     barrier.BarrierSites,
			ScheduleCostIncr: barrier.ScheduleCost - plain.ScheduleCost,
		})
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%d\n", name, timeOv, sizeOv, barrier.BarrierSites)
	}
	rep.GeomeanTimePct = (stats.GeoMean(timeRatios) - 1) * 100
	rep.GeomeanSizePct = (stats.GeoMean(sizeRatios) - 1) * 100
	fmt.Fprintf(w, "geomean\t%.1f\t%.1f\t\n", rep.GeomeanTimePct, rep.GeomeanSizePct)
	w.Flush()
	if jsonOut != "" {
		writeJSON(rep, jsonOut)
	}
}

type elisionMethodRow struct {
	Method  string `json:"method"`
	Sites   int    `json:"sites"`
	Emitted int    `json:"emitted"`
	Elided  int    `json:"elided"`
	Hoisted int    `json:"hoisted"`
}

type elisionBenchRow struct {
	Benchmark string `json:"benchmark"`

	// Static outcome of the tier-1 analysis over the corpus.
	Sites           int     `json:"sites"`
	Emitted         int     `json:"emitted"`
	Elided          int     `json:"elided"`
	Hoisted         int     `json:"hoisted"`
	ElisionRatio    float64 `json:"elision_ratio"`
	MethodsTotal    int     `json:"methods_total"`
	MethodsAt30Pct  int     `json:"methods_at_30pct_elision"`
	Tier0CodeBytes  int     `json:"tier0_code_bytes"`
	Tier1CodeBytes  int     `json:"tier1_code_bytes"`
	Tier0SchedCost  int     `json:"tier0_schedule_cost"`
	Tier1SchedCost  int     `json:"tier1_schedule_cost"`
	Tier0CompileNs  int64   `json:"tier0_compile_ns"`
	Tier1CompileNs  int64   `json:"tier1_compile_ns"`
	CompileDeltaPct float64 `json:"tier1_compile_delta_pct"`

	// Dynamic outcome from the tiered replay.
	Tier1Methods        int     `json:"tier1_methods_recompiled"`
	DynTestsTier0       int64   `json:"dyn_tests_tier0"`
	DynTestsTier1       int64   `json:"dyn_tests_tier1"`
	DynElisionRatio     float64 `json:"dyn_elision_ratio"`
	ModelledCyclesSaved int64   `json:"modelled_cycles_saved"`

	// Modelled mutator recovery: the barrier's per-load surcharge shrinks
	// by the dynamic elision ratio.
	ModelledLoadNsAfter       float64 `json:"modelled_load_ns_after_elision"`
	ModelledMutatorSpeedupPct float64 `json:"modelled_mutator_speedup_pct"`

	Methods []elisionMethodRow `json:"methods"`
}

type elisionReportJSON struct {
	Baseline       baselinePreElision `json:"baseline_pre_elision"`
	Mutator        mutatorModel       `json:"mutator_model"`
	CorpusMethods  int                `json:"corpus_methods"`
	CorpusOps      int                `json:"corpus_ops_per_method"`
	RepsPerIter    int                `json:"reps_per_iteration"`
	TestCostCycles int                `json:"test_cost_cycles"`
	Benchmarks     []elisionBenchRow  `json:"benchmarks"`

	GeomeanElisionRatio    float64 `json:"geomean_elision_ratio"`
	GeomeanCompileDeltaPct float64 `json:"geomean_tier1_compile_delta_pct"`
	GeomeanDynElisionRatio float64 `json:"geomean_dyn_elision_ratio"`
	GeomeanSpeedupPct      float64 `json:"geomean_modelled_mutator_speedup_pct"`
}

// elisionReport measures what tier 1 buys: per benchmark, the static
// fraction of barrier sites the analysis removed, the tier-1 compile-time
// surcharge over tier 0, the dynamic barrier-test reduction under the
// tiered replay, and the mutator time that reduction models out, anchored
// to the measured barrier-on/off load costs.
func elisionReport(methods, opsPer, reps int, out string) {
	mm := measuredMutatorModel()
	rep := elisionReportJSON{
		Baseline:       preElisionBaseline(),
		Mutator:        mm,
		CorpusMethods:  methods,
		CorpusOps:      opsPer,
		RepsPerIter:    reps,
		TestCostCycles: jitsim.TestCostCycles,
	}
	surcharge := mm.LoadBarriersOnNs - mm.LoadBarriersOffNs

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Println("Tier-1 barrier elision (jitsim)")
	fmt.Println()
	fmt.Fprintln(w, "Benchmark\tsites\telided\thoisted\tratio\t>=30% methods\tcompile +%\tdyn tests t0->t1\tmodelled load ns")
	var ratios, deltas, dynRatios, speedups []float64
	for _, name := range workload.MicroBenchNames() {
		corpus := jitsim.Corpus(name, methods, opsPer)
		row := elisionBenchRow{Benchmark: name, MethodsTotal: len(corpus)}
		c := &jitsim.Compiler{InsertReadBarriers: true}
		for _, m := range corpus {
			_, st0 := c.CompileTier(m, jitsim.Tier0)
			_, st1 := c.CompileTier(m, jitsim.Tier1)
			row.Sites += st0.BarrierSites
			row.Emitted += st1.BarrierSites
			row.Elided += st1.BarriersElided
			row.Hoisted += st1.BarriersHoisted
			row.Tier0CodeBytes += st0.CodeBytes
			row.Tier1CodeBytes += st1.CodeBytes
			row.Tier0SchedCost += st0.ScheduleCost
			row.Tier1SchedCost += st1.ScheduleCost
			row.Tier0CompileNs += int64(st0.Duration)
			row.Tier1CompileNs += int64(st1.Duration)
			if st0.BarrierSites > 0 &&
				float64(st1.BarriersElided+st1.BarriersHoisted)/float64(st0.BarrierSites) >= 0.30 {
				row.MethodsAt30Pct++
			}
			row.Methods = append(row.Methods, elisionMethodRow{
				Method:  m.Name,
				Sites:   st0.BarrierSites,
				Emitted: st1.BarrierSites,
				Elided:  st1.BarriersElided,
				Hoisted: st1.BarriersHoisted,
			})
		}
		if row.Sites > 0 {
			row.ElisionRatio = float64(row.Elided+row.Hoisted) / float64(row.Sites)
		}
		if row.Tier0CompileNs > 0 {
			row.CompileDeltaPct = (float64(row.Tier1CompileNs)/float64(row.Tier0CompileNs) - 1) * 100
		}

		rr := jitsim.Replay(&jitsim.Compiler{InsertReadBarriers: true, HotThreshold: reps}, corpus, reps)
		row.Tier1Methods = rr.Tier1Methods
		row.DynTestsTier0 = rr.DynTestsTier0
		row.DynTestsTier1 = rr.DynTestsTier1
		row.ModelledCyclesSaved = rr.ModelledCyclesSaved
		if rr.DynTestsTier0 > 0 {
			row.DynElisionRatio = 1 - float64(rr.DynTestsTier1)/float64(rr.DynTestsTier0)
		}
		// A load that kept its barrier pays the full surcharge; an elided
		// one pays none. Averaged over loads that is off + (1-rho)*(on-off).
		row.ModelledLoadNsAfter = mm.LoadBarriersOffNs + (1-row.DynElisionRatio)*surcharge
		row.ModelledMutatorSpeedupPct =
			(1 - row.ModelledLoadNsAfter/mm.LoadBarriersOnNs) * 100

		rep.Benchmarks = append(rep.Benchmarks, row)
		ratios = append(ratios, row.ElisionRatio)
		deltas = append(deltas, 1+row.CompileDeltaPct/100)
		dynRatios = append(dynRatios, row.DynElisionRatio)
		speedups = append(speedups, row.ModelledLoadNsAfter/mm.LoadBarriersOnNs)
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.2f\t%d/%d\t%.1f\t%d->%d\t%.2f\n",
			name, row.Sites, row.Elided, row.Hoisted, row.ElisionRatio,
			row.MethodsAt30Pct, row.MethodsTotal, row.CompileDeltaPct,
			row.DynTestsTier0, row.DynTestsTier1, row.ModelledLoadNsAfter)
	}
	rep.GeomeanElisionRatio = stats.GeoMean(ratios)
	rep.GeomeanCompileDeltaPct = (stats.GeoMean(deltas) - 1) * 100
	rep.GeomeanDynElisionRatio = stats.GeoMean(dynRatios)
	rep.GeomeanSpeedupPct = (1 - stats.GeoMean(speedups)) * 100
	fmt.Fprintf(w, "geomean\t\t\t\t%.2f\t\t%.1f\t\t%.2f ns (%.1f%% of surcharge back)\n",
		rep.GeomeanElisionRatio, rep.GeomeanCompileDeltaPct,
		mm.LoadBarriersOffNs+(1-rep.GeomeanDynElisionRatio)*surcharge,
		rep.GeomeanDynElisionRatio*100)
	w.Flush()
	writeJSON(rep, out)
}
