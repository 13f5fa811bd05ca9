package main

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"text/tabwriter"
	"time"

	"leakpruning/internal/harness"
	"leakpruning/internal/stats"
	"leakpruning/internal/workload"
)

// series is one CSV series of a time-series figure.
type series struct {
	name string
	cfg  harness.Config
}

// seriesFigure is a §6 figure: named runs whose per-collection reachable
// memory or per-iteration time is emitted as CSV. Reachable-memory series
// sample the heap at the end of every full-heap collection, exactly as the
// paper's figures do.
type seriesFigure struct {
	iters  int  // default iteration cap
	timing bool // per-iteration seconds rather than reachable bytes
	series []series
}

var seriesFigures = map[string]seriesFigure{
	// EclipseDiff reachable memory: leak, manually fixed, with leak pruning.
	"1": {iters: 2000, series: []series{
		{"leak", harness.Config{Program: "eclipsediff", Policy: "off"}},
		{"fixed", harness.Config{Program: "eclipsediff-fixed", Policy: "off"}},
		{"pruning", harness.Config{Program: "eclipsediff", Policy: "default"}},
	}},
	// EclipseDiff time per iteration, base vs. pruning.
	"8": {iters: 8000, timing: true, series: []series{
		{"base", harness.Config{Program: "eclipsediff", Policy: "off"}},
		{"pruning", harness.Config{Program: "eclipsediff", Policy: "default"}},
	}},
	// EclipseCP reachable memory, base vs. pruning.
	"9": {iters: 4000, series: []series{
		{"base", harness.Config{Program: "eclipsecp", Policy: "off"}},
		{"pruning", harness.Config{Program: "eclipsecp", Policy: "default"}},
	}},
	// EclipseCP time per iteration, base vs. pruning.
	"10": {iters: 4000, timing: true, series: []series{
		{"base", harness.Config{Program: "eclipsecp", Policy: "off"}},
		{"pruning", harness.Config{Program: "eclipsecp", Policy: "default"}},
	}},
	// EclipseDiff iteration times with the 100%-full threshold (option 1):
	// the first prune spike is the tall one.
	"11": {iters: 1500, timing: true, series: []series{
		{"pruning-100pct", harness.Config{Program: "eclipsediff", Policy: "default", FullHeapOnly: true}},
	}},
}

// fig regenerates one figure: 1, 8, 9, 10, 11 as CSV series, 6 and 7 as
// the §5 overhead tables.
func (c *cli) fig(args []string) error {
	const choices = "1, 6, 7, 8, 9, 10, 11"
	which, rest, err := c.selector("fig", choices, args)
	if err != nil {
		return err
	}
	fs := c.flagSet("fig " + which)
	if sf, ok := seriesFigures[which]; ok {
		maxIters := fs.Int("max-iters", 0, "iteration cap (0 = figure-specific default)")
		timeCap := fs.Duration("time-cap", 2*time.Minute, "wall-clock cap per run")
		if err := c.parse(fs, rest); err != nil {
			return err
		}
		if *maxIters > 0 {
			sf.iters = *maxIters
		}
		return c.seriesCSV(sf, *timeCap)
	}
	overhead := map[string]func(*cli, int, int) error{"6": figure6, "7": figure7}[which]
	if overhead == nil {
		return c.usagef("unknown figure %q (have %s)", which, choices)
	}
	iters := fs.Int("iters", 600, "iterations per benchmark run")
	trials := fs.Int("trials", 5, "trials per configuration (minimum reported)")
	if err := c.parse(fs, rest); err != nil {
		return err
	}
	if *iters < 1 || *trials < 1 {
		return c.usagef("fig %s: -iters and -trials must be at least 1, got %d and %d", which, *iters, *trials)
	}
	return overhead(c, *iters, *trials)
}

func (c *cli) seriesCSV(sf seriesFigure, timeCap time.Duration) error {
	w := csv.NewWriter(c.stdout)
	header := []string{"series", "iteration", "reachable_bytes"}
	if sf.timing {
		header[2] = "seconds"
	}
	w.Write(header)
	for _, s := range sf.series {
		s.cfg.MaxIters, s.cfg.MaxDuration, s.cfg.RecordIterTimes = sf.iters, timeCap, sf.timing
		res, err := harness.Run(s.cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.stderr, "# %s\n", res.Describe())
		if sf.timing {
			for i, d := range res.IterTimes {
				w.Write([]string{s.name, strconv.Itoa(i), strconv.FormatFloat(d.Seconds(), 'g', 6, 64)})
			}
			continue
		}
		for _, g := range res.GCSamples {
			w.Write([]string{s.name, strconv.Itoa(g.Iteration), strconv.FormatUint(g.BytesLive, 10)})
		}
	}
	w.Flush()
	return w.Error()
}

// The non-leaking benchmark suite stands in for DaCapo/pseudojbb/SPECjvm98
// in Figures 6 and 7; absolute times differ from the paper's hardware, but
// the measured quantities are the same relative overheads.

// bestOf runs one benchmark configuration trials times with pruning off and
// returns the minimum of metric: the least-perturbed observation of a
// deterministic workload.
func bestOf(trials int, cfg harness.Config, metric func(harness.Result) time.Duration) (float64, error) {
	cfg.Policy = "off"
	var xs []float64
	for i := 0; i < trials; i++ {
		res, err := harness.Run(cfg)
		if err != nil {
			return 0, err
		}
		if !res.Capped() {
			return 0, fmt.Errorf("%s died unexpectedly: %s (%v)", cfg.Program, res.Reason, res.Err)
		}
		xs = append(xs, float64(metric(res)))
	}
	return stats.Min(xs), nil
}

// figure6 measures the run-time overhead of read barriers: each benchmark
// runs with barriers compiled out (baseline) and with barriers in while the
// controller is forced into the SELECT state continuously, exactly the
// paper's methodology ("even though these benchmarks do not leak memory, we
// force leak pruning to be in the SELECT state continuously").
func figure6(c *cli, iters, trials int) error {
	fmt.Fprintln(c.stdout, "Figure 6: run-time overhead of leak pruning (barriers + forced SELECT)")
	fmt.Fprintln(c.stdout, "(paper: 5% average on Pentium 4, 3% on Core 2; here the two 'platforms'")
	fmt.Fprintln(c.stdout, " are the conditional and unconditional barrier implementations)")
	fmt.Fprintln(c.stdout)
	w := tabwriter.NewWriter(c.stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Benchmark\tconditional %\tunconditional %")
	wallTime := func(r harness.Result) time.Duration { return r.Duration }
	var cond, uncond []float64
	for _, name := range workload.MicroBenchNames() {
		var t [3]float64 // barriers off, conditional, unconditional
		for i, cfg := range []harness.Config{
			{BarriersOff: true},
			{ForceState: "select", BarrierVariant: "conditional"},
			{ForceState: "select", BarrierVariant: "unconditional"},
		} {
			cfg.Program, cfg.MaxIters = name, iters
			var err error
			if t[i], err = bestOf(trials, cfg, wallTime); err != nil {
				return err
			}
		}
		cond = append(cond, t[1]/t[0])
		uncond = append(uncond, t[2]/t[0])
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\n", name, stats.Overhead(t[1], t[0]), stats.Overhead(t[2], t[0]))
	}
	fmt.Fprintf(w, "geomean\t%.1f\t%.1f\n",
		(stats.GeoMean(cond)-1)*100, (stats.GeoMean(uncond)-1)*100)
	return w.Flush()
}

// figure7 measures normalized GC time across heap sizes 1.5x–5x each
// benchmark's minimum for the Base, Observe, and Select configurations.
func figure7(c *cli, iters, trials int) error {
	fmt.Fprintln(c.stdout, "Figure 7: geometric mean of normalized GC time across heap sizes")
	fmt.Fprintln(c.stdout, "(paper: Observe adds up to 5%, Select up to 9% more, total up to 14%)")
	fmt.Fprintln(c.stdout)
	w := tabwriter.NewWriter(c.stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Heap multiplier\tBase\tObserve\tSelect")
	gcTime := func(r harness.Result) time.Duration { return r.VMStats.GCTime }
	for _, mult := range []float64{1.5, 2, 3, 4, 5} {
		var obsRatios, selRatios []float64
		for _, name := range workload.MicroBenchNames() {
			prog, err := workload.New(name)
			if err != nil {
				return err
			}
			sizer, ok := prog.(workload.Sizer)
			if !ok {
				continue
			}
			heap := uint64(float64(sizer.MinHeap()) * mult)
			var t [3]float64 // base, observe, select
			for i, force := range []string{"", "observe", "select"} {
				cfg := harness.Config{Program: name, MaxIters: iters, HeapLimit: heap, ForceState: force}
				if t[i], err = bestOf(trials, cfg, gcTime); err != nil {
					return err
				}
			}
			if t[0] > 0 {
				obsRatios = append(obsRatios, t[1]/t[0])
				selRatios = append(selRatios, t[2]/t[0])
			}
		}
		fmt.Fprintf(w, "%.1fx\t1.000\t%.3f\t%.3f\n",
			mult, stats.GeoMean(obsRatios), stats.GeoMean(selRatios))
	}
	return w.Flush()
}
