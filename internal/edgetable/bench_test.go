package edgetable

import (
	"testing"

	"leakpruning/internal/heap"
)

// planEdges is the edge-type count of a typical leak run: the paper
// programs record 0 to a few hundred (eclipsediff 6, eclipsecp 266).
const planEdges = 24

func fillPlanTable() *Table {
	tbl := New(0)
	for e := 0; e < planEdges; e++ {
		tbl.RecordUse(heap.ClassID(1+e%6), heap.ClassID(1+e/6), 3)
		tbl.AddBytesUsed(heap.ClassID(1+e%6), heap.ClassID(1+e/6), uint64(64*e))
	}
	return tbl
}

// BenchmarkRecordUse is the read barrier's cold-path table update: a
// lookup of a resident edge type and a maxStaleUse raise attempt.
func BenchmarkRecordUse(b *testing.B) {
	tbl := fillPlanTable()
	for i := 0; i < b.N; i++ {
		e := i % planEdges
		tbl.RecordUse(heap.ClassID(1+e%6), heap.ClassID(1+e/6), uint8(2+i%5))
	}
}

// BenchmarkPlanWalk is the whole-table work of a SELECT/PRUNE cycle on a
// default-size table holding planEdges edge types: the frozen cut, the
// SELECT choice and the bytesUsed reset.
func BenchmarkPlanWalk(b *testing.B) {
	tbl := fillPlanTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Freeze()
		tbl.MaxBytesUsed()
		tbl.ResetBytesUsed()
	}
}
