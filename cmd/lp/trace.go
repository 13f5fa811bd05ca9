package main

import (
	"fmt"
	"os"
	"time"

	"leakpruning/internal/harness"
	"leakpruning/internal/trace"
)

// trace works on a recording made by 'lp run -record' (internal/trace
// format). A ×1 replay under the recorded options reproduces the recorded
// run's GC cycles byte for byte (-verify asserts it). Replaying under a
// different policy answers "what would policy P have done on this exact heap
// history"; -x N multiplies the recorded threads into N skewed clones
// against an N×-scaled heap.
func (c *cli) trace(args []string) error {
	const choices = "replay, stat, verify"
	which, rest, err := c.selector("trace", choices, args)
	if err != nil {
		return err
	}
	sub := map[string]func(*cli, []string) error{
		"replay": (*cli).traceReplay,
		"stat":   (*cli).traceStat,
		"verify": (*cli).traceVerify,
	}[which]
	if sub == nil {
		return c.usagef("unknown trace command %q (have %s)", which, choices)
	}
	return sub(c, rest)
}

func readTraceFile(path string) (*trace.Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return trace.ReadTrace(data)
}

func (c *cli) traceReplay(args []string) error {
	fs := c.flagSet("trace replay")
	var (
		in       = fs.String("i", "run.trace", "input trace path")
		policy   = fs.String("policy", "", "override the recorded pruning policy (empty = recorded)")
		mult     = fs.Int("x", 1, "thread multiplication: N skewed clones on an N×-scaled heap")
		speed    = fs.Float64("speed", 0, "pace against recorded timestamps (1 = recorded, 0 = flat out)")
		stagger  = fs.Duration("stagger", 0, "delay clone k's start by k×stagger")
		markMode = fs.String("mark-mode", "", "override the recorded mark mode")
		verify   = fs.Bool("verify", false, "require cycle-exact equivalence with the recording (×1, recorded options)")
		verbose  = fs.Bool("v", false, "per-clone detail")
	)
	if err := c.parse(fs, args); err != nil {
		return err
	}

	tr, err := readTraceFile(*in)
	if err != nil {
		return err
	}
	rr, err := harness.Replay(harness.ReplayConfig{
		Trace:    tr,
		Policy:   *policy,
		MarkMode: *markMode,
		Multiply: *mult,
		Speed:    *speed,
		Stagger:  *stagger,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "replayed %s under %s: ×%d, heap %d MiB, %d GC cycles, %v\n",
		rr.Program, rr.Policy, rr.Multiply, rr.HeapLimit>>20, len(rr.GCSamples),
		rr.Duration.Round(time.Millisecond))
	failed := 0
	for _, cl := range rr.Clones {
		if *verbose || cl.Err != nil || cl.Skipped > 0 {
			fmt.Fprintf(c.stdout, "  clone %d: %d iterations, %s", cl.Clone, cl.Iterations, cl.Reason)
			if cl.Skipped > 0 {
				fmt.Fprintf(c.stdout, " (%d events skipped)", cl.Skipped)
			}
			if cl.Err != nil {
				fmt.Fprintf(c.stdout, " — %v", cl.Err)
			}
			fmt.Fprintln(c.stdout)
		}
		if cl.Reason == harness.EndReplayDiverged || cl.Reason == harness.EndTraceCorrupt {
			failed++
		}
	}
	if len(rr.Prunes) > 0 {
		fmt.Fprintf(c.stdout, "  %d prune events\n", len(rr.Prunes))
	}
	for _, v := range rr.AuditReport {
		fmt.Fprintf(c.stdout, "  AUDIT VIOLATION: %s\n", v)
	}
	if *verify {
		if err := harness.CompareCycles(tr, rr.GCSamples); err != nil {
			return fmt.Errorf("equivalence: %w", err)
		}
		fmt.Fprintf(c.stdout, "  equivalence: %d cycles byte-identical to the recording\n", len(rr.GCSamples))
	}
	if failed > 0 {
		return fmt.Errorf("%d clone(s) failed structurally", failed)
	}
	if len(rr.AuditReport) > 0 {
		return fmt.Errorf("%d audit violation(s)", len(rr.AuditReport))
	}
	return nil
}

func (c *cli) traceStat(args []string) error {
	fs := c.flagSet("trace stat")
	in := fs.String("i", "run.trace", "input trace path")
	if err := c.parse(fs, args); err != nil {
		return err
	}

	tr, err := readTraceFile(*in)
	if err != nil {
		return err
	}
	st, err := tr.Stats()
	if err != nil {
		return err
	}
	m := tr.Meta
	fmt.Fprintf(c.stdout, "program      %s\n", m.Program)
	fmt.Fprintf(c.stdout, "policy       %s (mark-mode %s, barriers %s)\n",
		m.Policy, m.MarkMode, m.BarrierVariant)
	fmt.Fprintf(c.stdout, "heap limit   %d bytes\n", m.HeapLimit)
	fmt.Fprintf(c.stdout, "flags        %#x  fingerprint %#x\n", m.Flags, m.Fingerprint)
	fmt.Fprintf(c.stdout, "classes      %d   globals %d   threads %d\n", len(tr.Classes), tr.Globals, len(tr.Threads))
	fmt.Fprintf(c.stdout, "events       %d in %d bytes (%.2f bytes/event)\n", st.Events, st.Bytes, st.PerEvent)
	fmt.Fprintf(c.stdout, "gc cycles    %d   max iteration %d\n", len(st.Cycles), st.MaxIter)
	for k := trace.Kind(0); int(k) < len(st.ByKind); k++ {
		if st.ByKind[k] > 0 {
			fmt.Fprintf(c.stdout, "  %-18s %d\n", k, st.ByKind[k])
		}
	}
	return nil
}

func (c *cli) traceVerify(args []string) error {
	fs := c.flagSet("trace verify")
	in := fs.String("i", "run.trace", "input trace path")
	if err := c.parse(fs, args); err != nil {
		return err
	}

	tr, err := readTraceFile(*in)
	if err != nil {
		return err
	}
	n, err := tr.Validate()
	if err != nil {
		return fmt.Errorf("after %d events: %w", n, err)
	}
	fmt.Fprintf(c.stdout, "ok: %d events, %d classes, %d threads, %d globals\n",
		n, len(tr.Classes), len(tr.Threads), tr.Globals)
	return nil
}
