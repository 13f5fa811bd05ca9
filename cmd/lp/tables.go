package main

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"leakpruning/internal/harness"
	"leakpruning/internal/workload"
)

// leakTable is one table over the ten leaks of Table 1: every leak runs
// under each of policies, and row renders its results, in that order.
type leakTable struct {
	title    string
	header   string
	policies []string
	row      func(res []harness.Result) []string
}

var leakTables = map[string]leakTable{
	"1": {
		title: `Table 1: ten leaks and leak pruning's effect on them
(paper: EclipseDiff >200x, ListLeak/SwapLeak indefinitely, EclipseCP 81x,
 MySQL 35x, SPECjbb2000 4.7x, JbbMod 21x, Mckoi 1.6x, DualLeak/Delaunay no help)
`,
		header:   "Leak\tBase iters\tPruning iters\tEffect\tReason\tPrunes",
		policies: []string{"off", "default"},
		row: func(res []harness.Result) []string {
			base, def := res[0], res[1]
			return []string{survived(base), survived(def), effect(def, base), string(def.Reason), fmt.Sprint(len(def.Prunes))}
		},
	},
	"2": {
		title: `Table 2: iterations executed by leak programs under each prediction algorithm
(Base = unmodified VM; Most stale = LeakSurvivor/Melt-style; Indiv refs = no
 data structures; Default = leak pruning's edge-type + data-structure algorithm)
`,
		header:   "Leak\tBase\tMost stale\tIndiv refs\tDefault\tEdge types",
		policies: []string{"off", "most-stale", "indiv-refs", "default"},
		row: func(res []harness.Result) []string {
			def := res[3]
			return []string{survived(res[0]), survived(res[1]), survived(res[2]), survived(def), fmt.Sprint(def.EdgeTypes)}
		},
	},
	// Leak pruning against the Melt/LeakSurvivor-style disk-offloading
	// baseline (§6/§7): offloading extends every leak by about the disk/heap
	// ratio and then crashes when the disk fills; pruning is unbounded on
	// all-dead leaks but must predict perfectly.
	"3": {
		title: `Table 3 (ours): leak pruning vs. disk offloading (Melt/LeakSurvivor-style)
(disk budget = 4x heap; the paper: disk approaches "will eventually
 exhaust disk space and crash" while pruning bounds memory)
`,
		header:   "Leak\tBase\tOffload\tdisk full?\tPruning\tPruning reason",
		policies: []string{"off", "melt", "default"},
		row: func(res []harness.Result) []string {
			base, melt, def := res[0], res[1], res[2]
			diskFull := "no"
			if melt.DiskExhausted() {
				diskFull = "yes"
			}
			return []string{survived(base), survived(melt), diskFull, survived(def), string(def.Reason)}
		},
	},
}

// table regenerates Table 1, Table 2, or the disk-offloading comparison
// this reproduction adds as Table 3.
func (c *cli) table(args []string) error {
	which, rest, err := c.selector("table", "1, 2, 3", args)
	if err != nil {
		return err
	}
	tbl, ok := leakTables[which]
	if !ok {
		return c.usagef("unknown table %q (have 1, 2, 3)", which)
	}
	fs := c.flagSet("table " + which)
	var (
		maxIters = fs.Int("max-iters", harness.DefaultMaxIters, "iteration cap for healthy runs")
		timeCap  = fs.Duration("time-cap", 2*time.Minute, "wall-clock cap per run")
		verbose  = fs.Bool("v", false, "stream prune and OOM events")
	)
	if err := c.parse(fs, rest); err != nil {
		return err
	}

	fmt.Fprintln(c.stdout, tbl.title)
	w := tabwriter.NewWriter(c.stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, tbl.header)
	for _, name := range workload.LeakNames() {
		results := make([]harness.Result, len(tbl.policies))
		for i, policy := range tbl.policies {
			if *verbose {
				fmt.Fprintf(c.stdout, "running %s / %s ...\n", name, policy)
			}
			results[i], err = harness.Run(harness.Config{
				Program: name, Policy: policy,
				MaxIters: *maxIters, MaxDuration: *timeCap,
				Verbose: c.verboseFn(*verbose),
			})
			if err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%s\t%s\n", name, strings.Join(tbl.row(results), "\t"))
	}
	return w.Flush()
}

// survived renders an iteration count the way the tables do: ">N" for a run
// stopped healthy at its cap.
func survived(res harness.Result) string {
	if res.Capped() && res.Reason != harness.EndCompleted {
		return fmt.Sprintf(">%d", res.Iterations)
	}
	return fmt.Sprintf("%d", res.Iterations)
}

// effect renders the Table 1 "Effect" column.
func effect(res, base harness.Result) string {
	ratio := fmt.Sprintf("%.1fx", res.Ratio(base))
	switch {
	case res.Reason == harness.EndCompleted:
		return "completes (short-running)"
	case res.Capped():
		return fmt.Sprintf("runs >%s longer (healthy at cap)", ratio)
	case res.Ratio(base) < 1.15:
		return "no help"
	default:
		return fmt.Sprintf("runs %s longer", ratio)
	}
}
