package main

import (
	"fmt"
	"text/tabwriter"

	"leakpruning/internal/jitsim"
	"leakpruning/internal/stats"
	"leakpruning/internal/workload"
)

// compile reproduces §5's compilation measurements: inserting read
// barriers bloats the IR, adding to compile time (paper: +17% average, +34%
// max) and code size (+10% average, +15% max).
func (c *cli) compile(args []string) error {
	fs := c.flagSet("compile")
	trials := fs.Int("trials", 5, "trials per configuration (minimum reported)")
	if err := c.parse(fs, args); err != nil {
		return err
	}
	if *trials < 1 {
		return c.usagef("compile: -trials must be at least 1, got %d", *trials)
	}

	fmt.Fprintln(c.stdout, "Compilation overhead of read-barrier insertion (jitsim)")
	fmt.Fprintln(c.stdout, "(paper: +17% compile time on average, at most +34%; +10% code size, at most +15%)")
	fmt.Fprintln(c.stdout)
	w := tabwriter.NewWriter(c.stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Benchmark\tcompile time %\tcode size %\tbarrier sites")
	var timeRatios, sizeRatios []float64
	for _, name := range workload.MicroBenchNames() {
		corpus := jitsim.Corpus(name, 400, 400)
		var tn, tb []float64
		var plain, barrier jitsim.SuiteStats
		for i := 0; i < *trials; i++ {
			plain = jitsim.CompileCorpus(name, &jitsim.Compiler{}, corpus)
			barrier = jitsim.CompileCorpus(name, &jitsim.Compiler{InsertReadBarriers: true}, corpus)
			tn = append(tn, float64(plain.CompileTime))
			tb = append(tb, float64(barrier.CompileTime))
		}
		timeRatio := stats.Min(tb) / stats.Min(tn)
		sizeRatio := float64(barrier.CodeBytes) / float64(plain.CodeBytes)
		timeRatios = append(timeRatios, timeRatio)
		sizeRatios = append(sizeRatios, sizeRatio)
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%d\n", name, (timeRatio-1)*100, (sizeRatio-1)*100, barrier.BarrierSites)
	}
	fmt.Fprintf(w, "geomean\t%.1f\t%.1f\t\n", (stats.GeoMean(timeRatios)-1)*100, (stats.GeoMean(sizeRatios)-1)*100)
	return w.Flush()
}
