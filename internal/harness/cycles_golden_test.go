package harness

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"leakpruning/internal/vm"
	"leakpruning/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/cycles.golden from this build")

// goldenRuns are the runs TestCycleResultsGolden pins: a leak pruned through
// every controller state, a queue leak on a larger heap, and a program that
// never leaks, each to a fixed iteration count under the default policy.
var goldenRuns = []struct {
	program string
	heap    uint64 // 0 = the program's default
	iters   int
}{
	{"eclipsediff", 0, 2000},
	{"queueleak", 16 << 20, 8000},
	{"pseudojbb", 0, 2000},
}

// cycleResults runs one golden run in STW mark mode with the given tracer
// parallelism and returns one line per collection: everything in its
// gc.Result except the durations, plus the post-cycle live-set hash. A
// run that ends early (out of memory, a poison trap) ends with a line
// naming the error.
func cycleResults(t *testing.T, program string, heapLimit uint64, iters, workers int) []string {
	t.Helper()
	prog, err := workload.New(program)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		lines []string
	)
	cfg := Config{Policy: "default", HeapLimit: heapLimit, HashLiveSet: true}
	machine, err := newVM(cfg.meta(prog), vm.Options{GCWorkers: workers, OnGC: func(ev vm.Event) {
		r := ev.Result
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf("%d %s live %d/%d freed %d/%d maxstale %d cand %d pruned %d hash %016x",
			r.Index, r.Mode, r.BytesLive, r.ObjectsLive, r.BytesFreed, r.ObjectsFreed,
			r.MaxStale, r.Candidates, r.PrunedRefs, ev.LiveHash))
	}})
	if err != nil {
		t.Fatal(err)
	}
	runErr := machine.RunThread("main", func(th *vm.Thread) {
		th.Scope(func() { prog.Setup(th) })
		for iter := 0; iter < iters; iter++ {
			done := false
			th.Scope(func() { done = prog.Iterate(th, iter) })
			if done {
				return
			}
		}
	})
	if runErr != nil {
		lines = append(lines, "end: "+runErr.Error())
	}
	return lines
}

// TestCycleResultsGolden pins every collection's result — mode, live and
// freed bytes and objects, the highest stale counter, candidates, pruned
// references and the live-set hash — of three programs against a file
// written by an earlier build, at 1 and 2 tracer workers. A collector
// change that claims to alter only how a cycle is computed must leave every
// line in place.
func TestCycleResultsGolden(t *testing.T) {
	const path = "testdata/cycles.golden"
	var b strings.Builder
	for _, run := range goldenRuns {
		var first []string
		for _, workers := range []int{1, 2} {
			got := cycleResults(t, run.program, run.heap, run.iters, workers)
			if workers == 1 {
				first = got
				continue
			}
			if len(got) != len(first) {
				t.Fatalf("%s: %d cycles at 2 workers, %d at 1", run.program, len(got), len(first))
			}
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("%s: cycle line %d differs between worker counts:\n 1: %s\n 2: %s", run.program, i, first[i], got[i])
				}
			}
		}
		fmt.Fprintf(&b, "# %s heap=%d iters=%d\n", run.program, run.heap, run.iters)
		for _, l := range first {
			b.WriteString(l + "\n")
		}
	}
	text := b.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if text == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(text, "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			w := "<end of file>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("line %d:\n got  %s\n want %s", i+1, gotLines[i], w)
		}
	}
	t.Fatalf("golden has %d lines, this build %d", len(wantLines), len(gotLines))
}
