// Command benchmark is the repository's one benchmark: four fixed-work
// workloads over the whole stack (mutator, collector + pruning controller,
// and the leakd daemon used two ways), end-to-end metrics measured with
// tracing off, and a traced pass that records spans from this directory's
// own files around each layer's public calls. README.md explains every
// workload, metric and bound; BENCHMARK.json is the machine-readable
// contract.
//
//	go run -C benchmark . -seed 1                     # all workloads, both passes
//	go run -C benchmark . -workload leak_prune -trace 1
//	go run -C benchmark . -aa                         # two sets, compared against the bounds
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run keeps
// starting repeats.
const defaultSeconds = 20

// detailPrefix marks the stdout line on which a child hands its full
// WorkloadResult to the parent.
const detailPrefix = "detail "

func main() {
	workloadName := flag.String("workload", "", "run one workload in this process (default: all four, each in a child process)")
	seed := flag.Uint64("seed", 1, "seed of the serve request schedules (batch programs take no random input)")
	seconds := flag.Float64("seconds", defaultSeconds, "how long a run keeps starting repeats (never fewer than 3)")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced pass")
	aa := flag.Bool("aa", false, "run two full untraced sets and compare them against the bounds")
	flag.Parse()

	var err error
	switch {
	case *workloadName != "":
		err = runOne(*workloadName, *seed, *seconds, *trace == 1)
	case *aa:
		err = runAA(*seed, *seconds)
	default:
		err = runAll(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// contractLine is the last line of a single-workload run's standard output.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// runOne measures one workload in this process and prints the report, the
// detail line and the contract line.
func runOne(name string, seed uint64, seconds float64, traced bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, spans := runWorkload(w, runConfig{seed: seed, scale: 1, traced: traced}, seconds)
	printResult(os.Stdout, res)
	if traced {
		path := filepath.Join(resultsDir(), "spans-"+name+".json")
		if err := writePerfetto(path, spans); err != nil {
			return err
		}
		fmt.Printf("# %d spans of the first traced repeat written to %s\n", len(spans), path)
	}
	detail, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", detailPrefix, detail)

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line, err := json.Marshal(contractLine{
		Correct: res.Correct, Attempted: max(res.Attempted, 1), Failed: res.Failed,
		Metrics: contractMetrics(defs, res.Metrics),
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s failed its output checks: %s", name, strings.Join(res.Problems, "; "))
	}
	return nil
}

// printResult prints every metric as "workload metric value unit n" with the
// spread beside it.
func printResult(w io.Writer, res WorkloadResult) {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		s := res.Metrics[d.Name]
		fmt.Fprintf(w, "%s %s %s %s n=%d", res.Workload, d.Name, fmtValue(s.Median), d.Unit, s.N)
		if s.N > 1 {
			fmt.Fprintf(w, " q1=%s q3=%s min=%s max=%s samples/repeat=%d",
				fmtValue(s.Q1), fmtValue(s.Q3), fmtValue(s.Min), fmtValue(s.Max), s.Samples)
		}
		fmt.Fprintln(w)
	}
	if s, ok := res.Metrics[sumCheckKey]; ok {
		fmt.Fprintf(w, "# %s parts/whole = %s (iterate self time + pauses over measured wall)\n", res.Workload, fmtValue(s.Median))
	}
	noisy := ""
	if res.Noisy {
		noisy = " NOISY"
	}
	fmt.Fprintf(w, "# %s repeats=%d attempted=%d failed=%d correct=%v canary_ms_p50=%s canary_spread=%s%s wall_s=%s\n",
		res.Workload, res.Repeats, res.Attempted, res.Failed, res.Correct,
		fmtValue(res.CanaryMsP50), fmtValue(res.CanarySpread), noisy, fmtValue(res.WallS))
	for _, p := range res.Problems {
		fmt.Fprintf(w, "# PROBLEM %s: %s\n", res.Workload, p)
	}
}

// fmtValue prints a measured value with all the digits it has.
func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// resultsDir is where span files and result sets go: benchmark/results,
// whether the command runs from the repository root or from benchmark/.
func resultsDir() string {
	dir := "results"
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		dir = filepath.Join("benchmark", "results")
	}
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces at the write that follows
	return dir
}

// runChild re-executes this binary for one workload, so that peak RSS, Go
// heap state and set-up cost do not leak from one workload into the next,
// and returns the child's detail.
func runChild(name string, seed uint64, seconds float64, traced bool) (WorkloadResult, error) {
	var res WorkloadResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", fmtValue(seconds), "-trace", traceArg)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()

	found := false
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, detailPrefix):
			if err := json.Unmarshal([]byte(line[len(detailPrefix):]), &res); err != nil {
				return res, fmt.Errorf("%s: decoding detail: %w", name, err)
			}
			found = true
		case strings.HasPrefix(line, "{"): // the contract line: the detail carries the same numbers
		default:
			fmt.Println(line)
		}
	}
	if !found {
		return res, fmt.Errorf("%s (trace %s): child printed no result: %v", name, traceArg, runErr)
	}
	return res, nil
}

// ResultSet is what results/latest.json holds.
type ResultSet struct {
	// Claim is always null: the benchmark defines the baseline and claims no
	// gain.
	Claim       *string          `json:"claim"`
	Seed        uint64           `json:"seed"`
	RunSeconds  float64          `json:"run_seconds"`
	Environment Environment      `json:"environment"`
	Results     []WorkloadResult `json:"results"`
}

// runSet runs every workload in a child process: the untraced pass, and the
// traced pass too when traced is set.
func runSet(seed uint64, seconds float64, traced bool) (ResultSet, error) {
	set := ResultSet{Seed: seed, RunSeconds: seconds, Environment: captureEnvironment()}
	var firstErr error
	for _, w := range workloads {
		passes := []bool{false}
		if traced {
			passes = append(passes, true)
		}
		for _, pass := range passes {
			res, err := runChild(w.Name, seed, seconds, pass)
			if err != nil {
				return set, err
			}
			if !res.Correct && firstErr == nil {
				firstErr = fmt.Errorf("%s failed its output checks", w.Name)
			}
			set.Results = append(set.Results, res)
		}
	}
	set.Environment.LoadAfter = loadAvg()
	return set, firstErr
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runAll(seed uint64, seconds float64) error {
	set, runErr := runSet(seed, seconds, true)
	path := filepath.Join(resultsDir(), "latest.json")
	if err := writeJSON(path, set); err != nil {
		return err
	}
	fmt.Printf("# result set written to %s\n", path)
	return runErr
}

// AAReport is what results/aa.json holds: two sets of the same code and how
// far apart they landed, metric by metric.
type AAReport struct {
	Claim       *string     `json:"claim"`
	Seed        uint64      `json:"seed"`
	RunSeconds  float64     `json:"run_seconds"`
	Environment Environment `json:"environment"`
	Rows        []AARow     `json:"rows"`
	Exceeded    int         `json:"exceeded"`
}

// AARow compares one end-to-end metric on one workload across the two sets.
type AARow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	RelDiff  float64 `json:"rel_diff"` // |B - A| / A
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
	Noisy    bool    `json:"noisy"` // either run's canary spread exceeded the threshold
}

// setupAbsSlackS is the absolute slack setup_s gets in A/A: a batch set-up is
// milliseconds long, where a quarter is less than one scheduler quantum.
const setupAbsSlackS = 0.05

func compareSets(a, b ResultSet) []AARow {
	var rows []AARow
	for i, ra := range a.Results {
		rb := b.Results[i]
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Median, rb.Metrics[d.Name].Median
			row := AARow{Workload: ra.Workload, Metric: d.Name, Unit: d.Unit, A: va, B: vb, Bound: d.Bound, Noisy: ra.Noisy || rb.Noisy}
			if va != 0 {
				row.RelDiff = math.Abs(vb-va) / va
			}
			row.Within = row.RelDiff <= d.Bound
			if d.Name == "setup_s" && math.Abs(vb-va) <= setupAbsSlackS {
				row.Within = true
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func runAA(seed uint64, seconds float64) error {
	a, err := runSet(seed, seconds, false)
	if err != nil {
		return err
	}
	b, err := runSet(seed, seconds, false)
	if err != nil {
		return err
	}
	rep := AAReport{Seed: seed, RunSeconds: seconds, Environment: a.Environment, Rows: compareSets(a, b)}
	rep.Environment.LoadAfter = b.Environment.LoadAfter
	for _, r := range rep.Rows {
		mark := "ok"
		if !r.Within {
			mark = "EXCEEDS"
			rep.Exceeded++
		}
		if r.Noisy {
			mark += " (noisy)"
		}
		fmt.Printf("aa %s %s a=%s b=%s %s rel_diff=%.4f bound=%.2f %s\n",
			r.Workload, r.Metric, fmtValue(r.A), fmtValue(r.B), r.Unit, r.RelDiff, r.Bound, mark)
	}
	path := filepath.Join(resultsDir(), "aa.json")
	if err := writeJSON(path, rep); err != nil {
		return err
	}
	fmt.Printf("# A/A report written to %s\n", path)
	if rep.Exceeded > 0 {
		return fmt.Errorf("%d metric x workload pairs differ by more than their bound between two runs of the same code", rep.Exceeded)
	}
	return nil
}
