// Command lp is the reproduction's one offline CLI: it runs any workload
// under any policy and regenerates every table and figure of the paper's
// evaluation, each from exactly one subcommand.
//
//	lp list                                   # the workload programs
//	lp run -program eclipsediff -v            # one run, streaming prune/OOM events
//	lp run -program mysql -report             # §3.2 leak diagnosis of the run
//	lp run -program listleak -record l.trace  # record an allocation trace
//	lp table 1|2|3                            # Tables 1–2, pruning vs. disk offloading
//	lp fig 1|8|9|10|11 > fig.csv              # §6 time-series figures as CSV
//	lp fig 6|7                                # §5 barrier and GC-time overheads
//	lp compile                                # §5 compile-time / code-size cost
//	lp trace replay|stat|verify -i l.trace    # re-execute or inspect a trace
//
// Every run goes through harness.Run and every replay through
// harness.Replay. Iteration counts are not expected to match the paper's
// absolute numbers (different hardware, different substrate); the ratios
// and per-program outcomes are the reproduction target. Runs that stay
// healthy are stopped at -max-iters (the analogue of the paper's 24-hour
// terminations) and reported as ">N".
//
// Exit status: 0 on success, 1 when a run, replay or file operation fails,
// 2 when the command line is wrong.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usageText = `usage: lp <command> [flags]

  list                      list the workload programs
  run -program P            one run; -v streams events, -record FILE writes a
                            trace, -report diagnoses the leak, -obs-dir DIR
  table 1|2|3               Table 1 (base vs. pruning), Table 2 (all policies),
                            Table 3 (pruning vs. disk offloading)
  fig 1|8|9|10|11           §6 time-series figures, CSV on stdout
  fig 6|7                   §5 read-barrier overhead, GC time vs. heap size
  compile                   §5 compile-time and code-size cost of barriers
  trace replay|stat|verify  re-execute, summarize or validate a recorded trace

Run 'lp <command> -h' for flags.
`

// errUsage marks a wrong command line that has already been explained on
// stderr; run turns it into exit status 2.
var errUsage = errors.New("usage")

// cli carries the output streams, so the commands run in-process under test.
type cli struct {
	stdout, stderr io.Writer
}

// run executes one lp command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{stdout: stdout, stderr: stderr}
	err := c.dispatch(args)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintf(stderr, "lp: %v\n", err)
	return 1
}

func (c *cli) dispatch(args []string) error {
	if len(args) == 0 {
		return c.usagef("missing command")
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "list":
		return c.list()
	case "run":
		return c.run(rest)
	case "table":
		return c.table(rest)
	case "fig":
		return c.fig(rest)
	case "compile":
		return c.compile(rest)
	case "trace":
		return c.trace(rest)
	case "help", "-h", "-help", "--help":
		fmt.Fprint(c.stdout, usageText)
		return nil
	default:
		return c.usagef("unknown command %q", cmd)
	}
}

// usagef explains a wrong command line and returns errUsage.
func (c *cli) usagef(format string, args ...any) error {
	fmt.Fprintf(c.stderr, "lp: "+format+"\n", args...)
	fmt.Fprint(c.stderr, usageText)
	return errUsage
}

// flagSet starts a subcommand's flags; parse finishes them.
func (c *cli) flagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("lp "+name, flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	return fs
}

func (c *cli) parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the flag package has printed the error and the flags
	}
	if fs.NArg() > 0 {
		return c.usagef("%s: unexpected argument %q", fs.Name(), fs.Arg(0))
	}
	return nil
}

// selector splits "lp table 2 -max-iters 300" style arguments into the
// leading selector ("2") and the flags after it.
func (c *cli) selector(cmd, choices string, args []string) (string, []string, error) {
	if len(args) == 0 || len(args[0]) == 0 || args[0][0] == '-' {
		return "", nil, c.usagef("%s: expected one of %s", cmd, choices)
	}
	return args[0], args[1:], nil
}

// verboseFn is harness.Config.Verbose for -v: events go to stdout.
func (c *cli) verboseFn(on bool) func(string, ...any) {
	if !on {
		return nil
	}
	return func(format string, args ...any) { fmt.Fprintf(c.stdout, format+"\n", args...) }
}

// writeFile creates path, hands it to write, and reports the first error of
// write and Close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
