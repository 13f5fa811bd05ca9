// Package leakpruning's root benchmark file holds the ablation benches for
// the design decisions DESIGN.md calls out — the ones no other command
// regenerates. The paper's tables and figures come from cmd/lp; mechanism
// microcosts from the benchmarks in internal/vm. Run these with
//
//	go test -bench=. -benchmem
//
// End-to-end runs report their scientific outputs as custom metrics
// ("iterations": how long the program survived); wall-clock ns/op is
// secondary for those.
package leakpruning

import (
	"testing"
	"time"

	"leakpruning/internal/core"
	"leakpruning/internal/edgetable"
	"leakpruning/internal/gc"
	"leakpruning/internal/harness"
	"leakpruning/internal/heap"
	"leakpruning/internal/vm"
	"leakpruning/internal/workload"
)

// benchCap bounds healthy leak runs inside benchmarks.
const benchCap = 2000

// ---------------------------------------------------------------------------
// Figure 11 / §6.3 ablation: the 90% nearly-full threshold (option 2)
// versus waiting for 100% fullness (option 1). The interesting output is
// the worst iteration time: option 1's first prune comes after the VM has
// ground through exhaustion-time collections.

func BenchmarkFullHeapThreshold(b *testing.B) {
	run := func(b *testing.B, fullOnly bool) {
		var worst time.Duration
		var iterations float64
		for i := 0; i < b.N; i++ {
			res, err := harness.Run(harness.Config{
				Program: "eclipsediff", Policy: "default",
				MaxIters: 600, FullHeapOnly: fullOnly, RecordIterTimes: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			iterations += float64(res.Iterations)
			for _, d := range res.IterTimes {
				if d > worst {
					worst = d
				}
			}
		}
		b.ReportMetric(float64(worst.Microseconds()), "worst-iter-us")
		b.ReportMetric(iterations/float64(b.N), "iterations")
	}
	b.Run("option2-90pct", func(b *testing.B) { run(b, false) })
	b.Run("option1-100pct", func(b *testing.B) { run(b, true) })
}

// ---------------------------------------------------------------------------
// Ablation: the conservative two-greater staleness guard (§4.2) versus a
// one-greater guard. The looser guard prunes sooner but mispredicts
// rarely-used live structures, ending EclipseDiff early.

// guard1Policy is DefaultPolicy with the staleness margin lowered to one.
type guard1Policy struct{}

func (guard1Policy) Name() string { return "default-guard1" }
func (guard1Policy) Begin(env core.Env) core.Cycle {
	return &guard1Cycle{env: env}
}

type guard1Cycle struct{ env core.Env }

func (c *guard1Cycle) Candidate(src, tgt heap.ClassID, stale uint8) bool {
	return stale >= c.env.Edges.MaxStaleUseFor(src, tgt)+1 && stale >= 2
}
func (c *guard1Cycle) AccountStaleBytes(src, tgt heap.ClassID, bytes uint64) {
	c.env.Edges.AddBytesUsed(src, tgt, bytes)
}
func (c *guard1Cycle) Finish(res gc.Result) (core.Selection, bool) {
	entry, ok := c.env.Edges.MaxBytesUsed()
	if !ok || entry.BytesUsed() == 0 {
		c.env.Edges.ResetBytesUsed()
		return nil, false
	}
	sel := &guard1Selection{env: c.env, src: entry.Key().Src, tgt: entry.Key().Tgt}
	c.env.Edges.ResetBytesUsed()
	return sel, true
}

type guard1Selection struct {
	env      core.Env
	src, tgt heap.ClassID
}

func (s *guard1Selection) ShouldPrune(src, tgt heap.ClassID, stale uint8) bool {
	return src == s.src && tgt == s.tgt &&
		stale >= s.env.Edges.MaxStaleUseFor(src, tgt)+1 && stale >= 2
}
func (s *guard1Selection) String() string { return "guard1 selection" }

func runPolicyDirect(b *testing.B, program string, policy core.Policy, cap int) int {
	b.Helper()
	prog, err := workload.New(program)
	if err != nil {
		b.Fatal(err)
	}
	machine := vm.New(vm.Options{
		HeapLimit:      prog.DefaultHeap(),
		EnableBarriers: true,
		Policy:         policy,
		GCWorkers:      2,
	})
	iters := 0
	_ = machine.RunThread("bench", func(t *vm.Thread) {
		t.Scope(func() { prog.Setup(t) })
		for i := 0; i < cap; i++ {
			iters = i + 1
			t.Scope(func() { prog.Iterate(t, i) })
		}
	})
	return iters
}

func BenchmarkAblationStaleGuard(b *testing.B) {
	b.Run("guard2-paper", func(b *testing.B) {
		var iters int
		for i := 0; i < b.N; i++ {
			iters = runPolicyDirect(b, "eclipsediff", core.DefaultPolicy{}, benchCap)
		}
		b.ReportMetric(float64(iters), "iterations")
	})
	b.Run("guard1-loose", func(b *testing.B) {
		var iters int
		for i := 0; i < b.N; i++ {
			iters = runPolicyDirect(b, "eclipsediff", guard1Policy{}, benchCap)
		}
		b.ReportMetric(float64(iters), "iterations")
	})
}

// ---------------------------------------------------------------------------
// Microbenchmark of the edge table.

func BenchmarkEdgeTable(b *testing.B) {
	b.Run("record-use", func(b *testing.B) {
		tbl := edgetable.New(0)
		for i := 0; i < b.N; i++ {
			tbl.RecordUse(heap.ClassID(i%64+1), heap.ClassID(i%32+1), uint8(2+i%5))
		}
	})
	b.Run("record-use-parallel", func(b *testing.B) {
		tbl := edgetable.New(0)
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				tbl.RecordUse(heap.ClassID(i%64+1), heap.ClassID(i%32+1), uint8(2+i%5))
				i++
			}
		})
	})
	b.Run("max-bytes-used", func(b *testing.B) {
		tbl := edgetable.New(0)
		for i := 0; i < 1000; i++ {
			tbl.AddBytesUsed(heap.ClassID(i%100+1), heap.ClassID(i%50+1), uint64(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tbl.MaxBytesUsed()
		}
	})
}
