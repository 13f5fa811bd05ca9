package heap

import (
	"slices"
	"testing"
)

// BenchmarkRecycledAlloc times a birth into a slot the sweep's free path
// recycled: rounds of 4 Ki objects allocated through one context, freed
// through a Freer in ascending ID order as the sweep frees them, and born
// again, the frees outside the timer. A birth into a fresh chunk mostly
// times the chunk's zeroing; this is what a birth costs in a heap at
// steady state: the header stores, plus a free-list pop per run of 64.
//
//	go test -run='^$' -bench=BenchmarkRecycledAlloc ./internal/heap
func BenchmarkRecycledAlloc(b *testing.B) {
	const round = 4096
	reg := NewRegistry()
	node := reg.Define("Node", 1, 48)
	h := New(reg, 1<<30)
	ctx := h.NewAllocContext()
	f := h.NewFreer()
	ids := make([]ObjectID, 0, round)
	alloc := func() {
		r, err := h.AllocateCtx(&ctx, node)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, r.ID())
	}
	recycle := func() {
		h.ReleaseContext(&ctx)
		slices.Sort(ids)
		for _, id := range ids {
			f.Free(id, h.slot(id))
		}
		f.Flush()
		ids = ids[:0]
	}
	for range round {
		alloc()
	}
	recycle() // every timed birth takes a recycled slot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ids) == round {
			b.StopTimer()
			recycle()
			b.StartTimer()
		}
		alloc()
	}
}
