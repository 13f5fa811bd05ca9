package gc

import (
	"fmt"
	"testing"
	"time"

	"leakpruning/internal/heap"
)

// BenchmarkSweep measures the sweep on a heap of 64 Ki live objects with 1 %
// and 25 % of its slots dead each cycle, the dead spread between the live
// in ID order. The sweep reads the table entries of the dead only (free
// slots come from the free lists), so its cost per cycle should follow the
// dead: sweep-ns/freed stays
// about flat across the two rows while sweep-ns/cycle grows with them. Each
// iteration re-allocates the slots the last one freed, outside the timer.
//
//	go test -run='^$' -bench=BenchmarkSweep ./internal/gc
func BenchmarkSweep(b *testing.B) {
	const live = 1 << 16
	for _, deadPct := range []int{1, 25} {
		b.Run(fmt.Sprintf("dead-%d%%", deadPct), func(b *testing.B) {
			reg := heap.NewRegistry()
			node := reg.Define("Node", 1, 48)
			h := heap.New(reg, 1<<30)
			roots := &rootSet{}
			alloc := func() heap.Ref {
				r, err := h.Allocate(node)
				if err != nil {
					b.Fatal(err)
				}
				return r
			}
			// 64 chains of live nodes; every 100 slots, deadPct of them garbage.
			var tails [64]heap.Ref
			garbage := 0
			for i := 0; i < live; {
				if (i+garbage)%100 < deadPct {
					alloc()
					garbage++
					continue
				}
				r := alloc()
				if c := i % len(tails); tails[c].IsNull() {
					roots.refs = append(roots.refs, r)
				} else {
					h.Get(tails[c]).SetRef(0, r)
				}
				tails[i%len(tails)] = r
				i++
			}
			col := NewCollector(h, roots, 1)
			var sweep time.Duration
			var freed uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := col.Collect(Plan{Mode: ModeNormal})
				sweep += res.SweepDuration
				freed += res.ObjectsFreed
				b.StopTimer()
				for j := uint64(0); j < res.ObjectsFreed; j++ {
					alloc()
				}
				b.StartTimer()
			}
			b.StopTimer()
			if freed == 0 {
				b.Fatal("the sweep freed nothing")
			}
			b.ReportMetric(float64(sweep.Nanoseconds())/float64(b.N), "sweep-ns/cycle")
			b.ReportMetric(float64(sweep.Nanoseconds())/float64(freed), "sweep-ns/freed")
		})
	}
}
