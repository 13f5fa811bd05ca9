// Custom-policy example: the prediction algorithm is pluggable (§6.1
// evaluates three of them); this example implements a fourth — a
// "biggest target class" policy that ignores edge sources entirely and
// prunes all stale references into the class holding the most stale bytes —
// and compares it against the paper's default on ListLeak and DualLeak.
//
//	go run ./examples/custompolicy
package main

import (
	"fmt"
	"sync"

	"leakpruning/internal/core"
	"leakpruning/internal/gc"
	"leakpruning/internal/harness"
	"leakpruning/internal/heap"
	"leakpruning/internal/vm"
	"leakpruning/internal/vmerrors"
	"leakpruning/internal/workload"
)

// targetClassPolicy selects the target class with the most stale bytes and
// prunes every sufficiently stale reference into it, regardless of source.
type targetClassPolicy struct{}

func (targetClassPolicy) Name() string { return "target-class" }

func (targetClassPolicy) Begin(env core.Env) core.Cycle {
	return &targetClassCycle{env: env, bytes: map[heap.ClassID]uint64{}}
}

type targetClassCycle struct {
	env   core.Env
	mu    sync.Mutex
	bytes map[heap.ClassID]uint64
}

// Candidate defers stale references so the stale closure sizes whole data
// structures, like the default algorithm.
func (c *targetClassCycle) Candidate(src, tgt heap.ClassID, stale uint8) bool {
	return stale >= c.env.Edges.MaxStaleUseFor(src, tgt)+2
}

// AccountStaleBytes aggregates by target class only.
func (c *targetClassCycle) AccountStaleBytes(src, tgt heap.ClassID, bytes uint64) {
	c.mu.Lock()
	c.bytes[tgt] += bytes
	c.mu.Unlock()
}

func (c *targetClassCycle) Finish(res gc.Result) (core.Selection, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best heap.ClassID
	var bestBytes uint64
	for cls, b := range c.bytes {
		if b > bestBytes || (b == bestBytes && cls < best) {
			best, bestBytes = cls, b
		}
	}
	if bestBytes == 0 {
		return nil, false
	}
	return &targetClassSelection{env: c.env, tgt: best, bytes: bestBytes}, true
}

type targetClassSelection struct {
	env   core.Env
	tgt   heap.ClassID
	bytes uint64
}

func (s *targetClassSelection) ShouldPrune(src, tgt heap.ClassID, stale uint8) bool {
	return tgt == s.tgt && stale >= s.env.Edges.MaxStaleUseFor(src, tgt)+2
}

func (s *targetClassSelection) String() string {
	return fmt.Sprintf("* -> %s (%d bytes)", s.env.Classes.Name(s.tgt), s.bytes)
}

// runWith executes a workload under an arbitrary core.Policy (bypassing the
// harness's by-name lookup).
func runWith(program string, policy core.Policy, maxIters int) (int, error) {
	prog, err := workload.New(program)
	if err != nil {
		panic(err)
	}
	machine := vm.New(vm.Options{
		HeapLimit:      prog.DefaultHeap(),
		EnableBarriers: true,
		Policy:         policy,
	})
	iters := 0
	err = machine.RunThread("main", func(t *vm.Thread) {
		t.Scope(func() { prog.Setup(t) })
		for i := 0; i < maxIters; i++ {
			iters = i + 1
			done := false
			t.Scope(func() { done = prog.Iterate(t, i) })
			if done {
				return
			}
		}
	})
	return iters, err
}

func main() {
	const maxIters = 10000
	fmt.Println("Comparing the paper's default policy against a custom 'target-class' policy")
	fmt.Println()
	for _, program := range []string{"listleak", "dualleak"} {
		baseRes, err := harness.Run(harness.Config{Program: program, Policy: "off", MaxIters: maxIters})
		if err != nil {
			panic(err)
		}
		defIters, defErr := runWith(program, core.DefaultPolicy{}, maxIters)
		cusIters, cusErr := runWith(program, targetClassPolicy{}, maxIters)
		fmt.Printf("%-10s base=%-6d default=%-6d (%s) custom=%-6d (%s)\n",
			program, baseRes.Iterations,
			defIters, describe(defErr), cusIters, describe(cusErr))
	}
	fmt.Println()
	fmt.Println("On ListLeak both policies tolerate the leak; on DualLeak (live growth)")
	fmt.Println("neither can help — exactly the paper's point that prediction quality,")
	fmt.Println("not mechanism, separates the algorithms.")
}

func describe(err error) string {
	switch {
	case err == nil:
		return "healthy at cap"
	case vmerrors.IsInternal(err):
		return "pruned-access"
	case vmerrors.IsOOM(err):
		return "out-of-memory"
	default:
		return err.Error()
	}
}
