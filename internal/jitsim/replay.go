package jitsim

import "time"

// Replay implements the paper's replay-compilation methodology (§5): to
// make timer-based compilation decisions deterministic, the first iteration
// runs with compilation included, and the second iteration — executing only
// already-compiled code — is the one reported as steady-state application
// behaviour. On top of it sits the tiered controller: everything compiles
// at tier 0 (always-barrier, cheap) for the first iteration; methods whose
// execution count reaches the compiler's HotThreshold are recompiled at
// tier 1 (barrier elision) before the second iteration, exactly when a
// real adaptive JIT would spend optimization budget.

// ReplayResult reports the two iterations' costs and the tiering outcome.
type ReplayResult struct {
	// CompileTime is the total compilation cost, tier-0 and tier-1 both.
	CompileTime time.Duration
	// FirstIteration includes tier-0 compilation plus one execution pass.
	FirstIteration time.Duration
	// SecondIteration executes the compiled code only — the steady state
	// the paper's run-time overhead numbers are measured on.
	SecondIteration time.Duration
	// FirstIterationWork and SecondIterationWork are the same two
	// iterations in modelled units that do not depend on the host: ops
	// executed, plus for the first the tier-0 compile work (IR ops emitted
	// and scheduling cost).
	FirstIterationWork  int64
	SecondIterationWork int64
	// BarrierSites is the number of read-barrier expansions in the tier-0
	// code (= the oracle's site count).
	BarrierSites int

	// Tiering results (populated when the compiler's HotThreshold > 0).

	// Tier1Methods is how many hot methods were recompiled at tier 1.
	Tier1Methods int
	// RecompileTime is the tier-1 share of CompileTime.
	RecompileTime time.Duration
	// BarriersElided / BarriersHoisted are summed over tier-1 compiles.
	BarriersElided  int
	BarriersHoisted int
	// ElisionRatio is (elided+hoisted) / source load sites across the
	// recompiled methods.
	ElisionRatio float64
	// DynTestsTier0 / DynTestsTier1 count dynamic barrier tests executed
	// during the first (all tier-0) and second (hot methods at tier 1)
	// iterations.
	DynTestsTier0 int64
	DynTestsTier1 int64
	// ModelledCyclesSaved is the dynamic-test delta times the modelled
	// inline-test cost.
	ModelledCyclesSaved int64
}

// TestCostCycles is the modelled cost of one inline barrier test
// (test + untaken branch) in cycles; exported so benchmark reports can
// label the cycles-saved numbers with the model they used.
const TestCostCycles = 3

// Replay compiles the corpus at tier 0, executes every method `reps` times
// per iteration, recompiles hot methods at tier 1 when the compiler has a
// HotThreshold, and reports both iterations.
func Replay(c *Compiler, corpus []*Method, reps int) ReplayResult {
	var res ReplayResult
	start := time.Now()
	compiled := make([]*CompiledMethod, 0, len(corpus))
	sites := make([]int, len(corpus))
	for i, m := range corpus {
		cm, st := c.CompileTier(m, Tier0)
		res.CompileTime += st.Duration
		res.BarrierSites += st.BarrierSites
		res.FirstIterationWork += int64(st.IRSizeOut + st.ScheduleCost)
		sites[i] = st.BarrierSites
		compiled = append(compiled, cm)
	}
	for _, cm := range compiled {
		r := cm.Run(reps)
		res.DynTestsTier0 += r.BarrierTests
		res.FirstIterationWork += r.Ops
	}
	res.FirstIteration = time.Since(start)

	// Tiered recompilation: every method just executed `reps` times; the
	// ones at or over the threshold (with any barrier work to remove) get
	// the tier-1 pipeline.
	if c.HotThreshold > 0 && reps >= c.HotThreshold {
		srcSites := 0
		for i, m := range corpus {
			if sites[i] == 0 {
				continue
			}
			cm, st := c.CompileTier(m, Tier1)
			res.CompileTime += st.Duration
			res.RecompileTime += st.Duration
			res.Tier1Methods++
			res.BarriersElided += st.BarriersElided
			res.BarriersHoisted += st.BarriersHoisted
			srcSites += sites[i]
			compiled[i] = cm
			if reg := c.Obs.Registry(); reg != nil {
				reg.NewCounter("lp_jit_recompiles_total",
					"hot methods recompiled at tier 1").Inc()
			}
		}
		if srcSites > 0 {
			res.ElisionRatio = float64(res.BarriersElided+res.BarriersHoisted) / float64(srcSites)
		}
	}

	second := time.Now()
	for _, cm := range compiled {
		r := cm.Run(reps)
		res.DynTestsTier1 += r.BarrierTests
		res.SecondIterationWork += r.Ops
	}
	res.SecondIteration = time.Since(second)
	res.ModelledCyclesSaved = (res.DynTestsTier0 - res.DynTestsTier1) * TestCostCycles
	return res
}
