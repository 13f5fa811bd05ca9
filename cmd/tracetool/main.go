// Command tracetool records, replays, summarizes, and verifies allocation
// traces (internal/trace format).
//
// Usage:
//
//	tracetool record -program listleak -policy default -iters 900 -o run.trace
//	tracetool replay -i run.trace -verify          # ×1, recorded options, cycle-exact
//	tracetool replay -i run.trace -policy most-stale -x 10
//	tracetool stat   -i run.trace
//	tracetool verify -i run.trace                  # structural validation only
//
// A ×1 replay under the recorded options reproduces the recorded run's GC
// cycles byte for byte (-verify asserts it). Replaying under a different
// policy answers "what would policy P have done on this exact heap
// history"; -x N multiplies the recorded threads into N skewed clones
// against an N×-scaled heap.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"leakpruning/internal/harness"
	"leakpruning/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "stat":
		err = cmdStat(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "tracetool: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracetool: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: tracetool <record|replay|stat|verify> [flags]

  record  run a workload with the trace recorder attached and write the trace
  replay  re-execute a trace (optionally under a different policy, ×N threads)
  stat    print the trace header and event-count summary
  verify  structurally validate every event (typed errors, exit 1 on corruption)

Run 'tracetool <subcommand> -h' for flags.
`)
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		program  = fs.String("program", "listleak", "workload to record (see leakbench -list)")
		policy   = fs.String("policy", "default", "pruning policy: off, default, most-stale, indiv-refs, melt")
		iters    = fs.Int("iters", 900, "iteration cap")
		heapMB   = fs.Int("heap", 0, "heap limit in MiB (0 = program default)")
		markMode = fs.String("mark-mode", "", "stw or concurrent (default stw)")
		hashLive = fs.Bool("hash-live", true, "record per-cycle live-set hashes (the replay equivalence anchor)")
		out      = fs.String("o", "run.trace", "output trace path")
	)
	fs.Parse(args)

	rec := trace.NewRecorder()
	res, err := harness.Run(harness.Config{
		Program:     *program,
		Policy:      *policy,
		HeapLimit:   uint64(*heapMB) << 20,
		MaxIters:    *iters,
		MarkMode:    *markMode,
		HashLiveSet: *hashLive,
		Record:      rec,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	n, werr := rec.WriteTo(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Printf("recorded %s/%s: %d iterations, ended %s\n", *program, *policy, res.Iterations, res.Reason)
	fmt.Printf("wrote %s (%d bytes, %d GC cycles)\n", *out, n, len(res.GCSamples))
	return nil
}

func readTraceFile(path string) (*trace.Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return trace.ReadTrace(data)
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
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
	fs.Parse(args)

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
	fmt.Printf("replayed %s under %s: ×%d, heap %d MiB, %d GC cycles, %v\n",
		rr.Program, rr.Policy, rr.Multiply, rr.HeapLimit>>20, len(rr.GCSamples),
		rr.Duration.Round(time.Millisecond))
	failed := 0
	for _, c := range rr.Clones {
		if *verbose || c.Err != nil || c.Skipped > 0 {
			fmt.Printf("  clone %d: %d iterations, %s", c.Clone, c.Iterations, c.Reason)
			if c.Skipped > 0 {
				fmt.Printf(" (%d events skipped)", c.Skipped)
			}
			if c.Err != nil {
				fmt.Printf(" — %v", c.Err)
			}
			fmt.Println()
		}
		if c.Reason == harness.EndReplayDiverged || c.Reason == harness.EndTraceCorrupt {
			failed++
		}
	}
	if len(rr.Prunes) > 0 {
		fmt.Printf("  %d prune events\n", len(rr.Prunes))
	}
	for _, v := range rr.AuditReport {
		fmt.Printf("  AUDIT VIOLATION: %s\n", v)
	}
	if *verify {
		if err := harness.CompareCycles(tr, rr.GCSamples); err != nil {
			return fmt.Errorf("equivalence: %w", err)
		}
		fmt.Printf("  equivalence: %d cycles byte-identical to the recording\n", len(rr.GCSamples))
	}
	if failed > 0 {
		return fmt.Errorf("%d clone(s) failed structurally", failed)
	}
	if len(rr.AuditReport) > 0 {
		return fmt.Errorf("%d audit violation(s)", len(rr.AuditReport))
	}
	return nil
}

func cmdStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	in := fs.String("i", "run.trace", "input trace path")
	fs.Parse(args)

	tr, err := readTraceFile(*in)
	if err != nil {
		return err
	}
	st, err := tr.Stats()
	if err != nil {
		return err
	}
	m := tr.Meta
	fmt.Printf("program      %s\n", m.Program)
	fmt.Printf("policy       %s (mark-mode %s, barriers %s)\n",
		m.Policy, m.MarkMode, m.BarrierVariant)
	fmt.Printf("heap limit   %d bytes\n", m.HeapLimit)
	fmt.Printf("flags        %#x  fingerprint %#x\n", m.Flags, m.Fingerprint)
	fmt.Printf("classes      %d   globals %d   threads %d\n", len(tr.Classes), tr.Globals, len(tr.Threads))
	fmt.Printf("events       %d in %d bytes (%.2f bytes/event)\n", st.Events, st.Bytes, st.PerEvent)
	fmt.Printf("gc cycles    %d   max iteration %d\n", len(st.Cycles), st.MaxIter)
	for k := trace.Kind(0); int(k) < len(st.ByKind); k++ {
		if st.ByKind[k] > 0 {
			fmt.Printf("  %-18s %d\n", k, st.ByKind[k])
		}
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("i", "run.trace", "input trace path")
	fs.Parse(args)

	tr, err := readTraceFile(*in)
	if err != nil {
		return err
	}
	n, err := tr.Validate()
	if err != nil {
		return fmt.Errorf("after %d events: %w", n, err)
	}
	fmt.Printf("ok: %d events, %d classes, %d threads, %d globals\n",
		n, len(tr.Classes), len(tr.Threads), tr.Globals)
	return nil
}
