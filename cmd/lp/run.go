package main

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"leakpruning/internal/harness"
	"leakpruning/internal/obs"
	"leakpruning/internal/trace"
	"leakpruning/internal/workload"
)

func (c *cli) list() error {
	for _, n := range workload.Names() {
		p, err := workload.New(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "%-18s %s\n", n, p.Description())
	}
	return nil
}

// run is the single-run entry point: one program under one policy, with the
// run's events (-v), its allocation trace (-record), its observability
// artifacts (-obs-dir) and the §3.2 leak diagnosis (-report) as outputs.
func (c *cli) run(args []string) error {
	fs := c.flagSet("run")
	var (
		program  = fs.String("program", "", "program to run (see 'lp list')")
		policy   = fs.String("policy", "default", "pruning policy: off, default, most-stale, indiv-refs, decay, melt")
		heapMB   = fs.Int("heap", 0, "heap limit in MiB (0 = program default)")
		maxIters = fs.Int("max-iters", harness.DefaultMaxIters, "iteration cap for healthy runs")
		timeCap  = fs.Duration("time-cap", 2*time.Minute, "wall-clock cap")
		fullHeap = fs.Bool("full-heap-only", false, "use the paper's option (1): prune only at 100% heap fullness")
		markMode = fs.String("mark-mode", "", "stw or concurrent (default stw)")
		obsDir   = fs.String("obs-dir", "", "write trace_*.json and metrics_*.json artifacts to this directory (empty = off)")
		record   = fs.String("record", "", "record an allocation trace to this path (replay with 'lp trace replay')")
		report   = fs.Bool("report", false, "print the §3.2 leak diagnosis: OOM warning, pruned structures, edge table, live heap")
		dotFile  = fs.String("dot", "", "write a Graphviz dump of the final heap to this file")
		verbose  = fs.Bool("v", false, "stream prune and OOM events")
	)
	if err := c.parse(fs, args); err != nil {
		return err
	}
	if *program == "" {
		return c.usagef("run: -program is required (see 'lp list')")
	}

	cfg := harness.Config{
		Program:      *program,
		Policy:       *policy,
		HeapLimit:    uint64(*heapMB) << 20,
		MaxIters:     *maxIters,
		MaxDuration:  *timeCap,
		FullHeapOnly: *fullHeap,
		MarkMode:     *markMode,
		Verbose:      c.verboseFn(*verbose),
	}
	if *obsDir != "" {
		cfg.Obs = obs.New()
	}
	if *record != "" {
		cfg.Record = trace.NewRecorder()
		cfg.HashLiveSet = true // the replay equivalence anchor
	}
	res, err := harness.Run(cfg)
	if err != nil {
		return err
	}
	if cfg.Record != nil {
		var n int64
		err := writeFile(*record, func(w io.Writer) (err error) {
			n, err = cfg.Record.WriteTo(w)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "recorded allocation trace: %s (%d bytes, %d GC cycles)\n", *record, n, len(res.GCSamples))
	}
	if cfg.Obs != nil {
		tracePath, metricsPath, err := obs.WriteArtifacts(cfg.Obs, *obsDir, *program+"_"+*policy)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "wrote %s (load at https://ui.perfetto.dev) and %s\n", tracePath, metricsPath)
	}
	if *report {
		c.leakReport(res)
	} else {
		c.summary(res)
	}
	if *dotFile != "" {
		err := writeFile(*dotFile, func(w io.Writer) error { return res.VM.DumpDot(w, dotNodes) })
		if err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "\nheap graph written to %s (render with: dot -Tsvg %s)\n", *dotFile, *dotFile)
	}
	return nil
}

const (
	// reportRows caps each section of the leak report.
	reportRows = 12
	// dotNodes caps the -dot heap dump.
	dotNodes = 256
)

func (c *cli) summary(res harness.Result) {
	fmt.Fprintln(c.stdout, res.Describe())
	if len(res.Prunes) == 0 {
		return
	}
	fmt.Fprintf(c.stdout, "pruned edge types (first 10 events):\n")
	for i, ev := range res.Prunes {
		if i >= 10 {
			fmt.Fprintf(c.stdout, "  ... %d more prune events\n", len(res.Prunes)-10)
			break
		}
		fmt.Fprintf(c.stdout, "  gc %d: %s (%d refs, %d bytes freed)\n", ev.GCIndex, ev.Selection, ev.PrunedRefs, ev.BytesFreed)
	}
}

// leakReport prints the diagnostic report the paper sketches in §3.2: the
// out-of-memory warning, the data structures leak pruning reclaimed (edge
// types, reference counts, bytes), the edge-table view with maxStaleUse
// values, and the final live heap composition. Developers use it to find
// the leak the pruner is papering over.
func (c *cli) leakReport(res harness.Result) {
	out := c.stdout
	fmt.Fprintf(out, "leak report: %s, policy %s (heap %d KB)\n", res.Program, res.Policy, res.HeapLimit>>10)
	if prog, err := workload.New(res.Program); err == nil {
		fmt.Fprintf(out, "%s\n", prog.Description())
	}
	fmt.Fprintf(out, "\nran %d iterations in %v; ", res.Iterations, res.Duration.Round(time.Millisecond))
	switch {
	case res.Capped():
		fmt.Fprintln(out, "still healthy when stopped")
	case res.Reason == harness.EndPoisonTrap:
		fmt.Fprintf(out, "terminated by a pruned-reference access:\n  %v\n", res.Err)
	case res.Reason == harness.EndOOM:
		fmt.Fprintf(out, "terminated by memory exhaustion:\n  %v\n", res.Err)
	default:
		fmt.Fprintf(out, "terminated: %v\n", res.Err)
	}
	if res.OOMWarning != "" && (res.Err == nil || res.OOMWarning != res.Err.Error()) {
		fmt.Fprintf(out, "\nout-of-memory warning (deferred, §3.2):\n  %s\n", res.OOMWarning)
	}

	st := res.VMStats
	fmt.Fprintf(out, "\ncollections: %d; pruned references: %d; poison traps: %d\n",
		st.Collections, st.PrunedRefs, st.PoisonTraps)

	fmt.Fprintf(out, "\npruned data structures (the likely leaks), first %d events:\n", reportRows)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  gc\tselection\trefs\tbytes freed")
	for i, ev := range res.Prunes {
		if i >= reportRows {
			fmt.Fprintf(w, "  ...\t%d more prune events\t\t\n", len(res.Prunes)-reportRows)
			break
		}
		fmt.Fprintf(w, "  %d\t%s\t%d\t%d\n", ev.GCIndex, ev.Selection, ev.PrunedRefs, ev.BytesFreed)
	}
	w.Flush()

	fmt.Fprintf(out, "\nedge-table view (top %d by pruned references):\n", reportRows)
	fmt.Fprintln(w, "  source class\ttarget class\tmaxStaleUse\tpruned refs")
	shown := 0
	for _, snap := range res.VM.EdgeTable().Snapshots(res.VM.Classes()) {
		if snap.TimesPruned == 0 {
			continue
		}
		fmt.Fprintf(w, "  %s\t%s\t%d\t%d\n", snap.Src, snap.Tgt, snap.MaxStaleUse, snap.TimesPruned)
		if shown++; shown >= reportRows {
			break
		}
	}
	w.Flush()

	fmt.Fprintf(out, "\nfinal live heap composition (top %d classes):\n", reportRows)
	fmt.Fprintln(w, "  class\tobjects\tKB")
	for i, row := range res.VM.HeapHistogram() {
		if i >= reportRows {
			break
		}
		fmt.Fprintf(w, "  %s\t%d\t%d\n", row.Class, row.Objects, row.Bytes>>10)
	}
	w.Flush()

	if len(res.Prunes) > 0 {
		fmt.Fprintln(out, "\ninterpretation: the classes above that keep appearing as prune")
		fmt.Fprintln(out, "selections are reachable-but-dead growth — start the leak hunt at the")
		fmt.Fprintln(out, "code that creates those source-class objects and never clears their")
		fmt.Fprintln(out, "references.")
	}
}
