// Phase-level benchmarks: mark and allocation throughput as a function of
// worker count. These are the scaling proof for the work-stealing tracer
// and the sharded allocator (benchmark/'s gc.probe_* metrics time the
// phases at the default worker count; the sweep, which is serial, has
// internal/gc's BenchmarkSweep); run them quickly with
//
//	go test -run='^$' -bench='Benchmark(Mark|Alloc)Parallel' -benchtime=1x
package leakpruning

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"leakpruning/internal/gc"
	"leakpruning/internal/heap"
)

type benchRoots struct{ refs []heap.Ref }

func (r *benchRoots) VisitRoots(fn func(heap.Ref)) {
	for _, ref := range r.refs {
		fn(ref)
	}
}

// buildTraceHeap builds `trees` complete binary trees of the given depth,
// each its own root, all reachable.
func buildTraceHeap(b *testing.B, trees, depth int) (*heap.Heap, *benchRoots) {
	b.Helper()
	reg := heap.NewRegistry()
	node := reg.Define("Node", 2, 64)
	h := heap.New(reg, 1<<30)
	roots := &benchRoots{}
	var build func(depth int) heap.Ref
	build = func(depth int) heap.Ref {
		r, err := h.Allocate(node)
		if err != nil {
			b.Fatal(err)
		}
		if depth > 0 {
			h.Get(r).SetRef(0, build(depth-1))
			h.Get(r).SetRef(1, build(depth-1))
		}
		return r
	}
	for i := 0; i < trees; i++ {
		roots.refs = append(roots.refs, build(depth))
	}
	return h, roots
}

// phaseWorkerCounts is the worker axis shared by the phase benchmarks.
var phaseWorkerCounts = []int{1, 2, 4, 8}

// BenchmarkMarkParallel measures the mark (in-use closure) phase over the
// worker axis on two heaps in the same run. Everything is reachable, so
// each iteration re-traces the same live graph and sweep frees nothing.
//
//   - small: 4 trees of depth 11, ~16k objects — leak_prune's live set. The
//     depth-first mark stack of a binary tree never passes its depth, so
//     nothing spills and no helper starts: every worker count should read
//     the same ns/object as workers-1.
//   - large: 1024 trees of depth 7, ~261k objects. The root deal alone is 8
//     batches, so helpers start at once and steal; whether that pays is the
//     box's core count, which the benchmark's name line reports.
func BenchmarkMarkParallel(b *testing.B) {
	for _, hp := range []struct {
		name         string
		trees, depth int
	}{{"small", 4, 11}, {"large", 1024, 7}} {
		for _, workers := range phaseWorkerCounts {
			b.Run(fmt.Sprintf("%s/workers-%d", hp.name, workers), func(b *testing.B) {
				h, roots := buildTraceHeap(b, hp.trees, hp.depth)
				col := gc.NewCollector(h, roots, workers)
				var mark time.Duration
				var objs uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := col.Collect(gc.Plan{Mode: gc.ModeNormal})
					mark += res.MarkDuration
					objs += res.ObjectsLive
				}
				b.StopTimer()
				if objs == 0 {
					b.Fatal("no live objects traced")
				}
				b.ReportMetric(float64(mark.Nanoseconds())/float64(objs), "mark-ns/obj")
			})
		}
	}
}

// BenchmarkAllocParallel measures mutator allocation throughput: g
// goroutines each allocating through their own TLAB context into a fresh
// heap. One benchmark iteration allocates perIter objects in total.
func BenchmarkAllocParallel(b *testing.B) {
	const perIter = 1 << 17
	reg := heap.NewRegistry()
	node := reg.Define("Node", 1, 48)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("goroutines-%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := heap.New(reg, 1<<30)
				b.StartTimer()
				var wg sync.WaitGroup
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						ctx := h.NewAllocContext()
						defer h.ReleaseContext(&ctx)
						for j := 0; j < perIter/workers; j++ {
							if _, err := h.AllocateCtx(&ctx, node); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perIter), "alloc-ns/obj")
		})
	}
}
