package workload

import (
	"leakpruning/internal/heap"
	"leakpruning/internal/vm"
)

// Delaunay reproduces the colleagues' mesh-refinement application (§6): it
// is short-running and its reachable memory is bounded — it grows to a
// large working set, holds some of it longer than necessary, then finishes.
// Leak pruning gets no opportunity to help: by the time the heap is nearly
// full, everything was allocated (and touched) recently, so nothing is
// stale enough to select, and the program completes under every policy.

func init() {
	register("delaunay", true, func() Program { return newDelaunay() })
}

type delaunay struct {
	tri  heap.ClassID // Triangle: 3 neighbours
	node heap.ClassID // MeshNode: triangle, next
	temp heap.ClassID // RefineTemp

	meshG int
	rnd   *rng
}

func newDelaunay() *delaunay { return &delaunay{rnd: newRNG(0xde1)} }

func (p *delaunay) Name() string { return "delaunay" }
func (p *delaunay) Description() string {
	return "short-running mesh refinement: large but bounded reachable memory; completes before pruning can act"
}
func (p *delaunay) DefaultHeap() uint64 { return 8 << 20 }

const (
	delaunayIters       = 160
	delaunayGrowIters   = 120
	delaunayTrisPerIter = 180
	delaunayTriBytes    = 200
	delaunayTempBytes   = 2048
	delaunayTempsPer    = 24
	delaunayTouchWindow = 300
)

func (p *delaunay) Setup(t *vm.Thread) {
	v := t.VM()
	p.tri = v.DefineClass("Triangle", 3, delaunayTriBytes)
	p.node = v.DefineClass("MeshNode", 2, 0)
	p.temp = v.DefineClass("RefineTemp", 0, delaunayTempBytes)
	p.meshG = v.AddGlobal()
}

func (p *delaunay) Iterate(t *vm.Thread, iter int) bool { return held(t, iter, p.iterate) }

func (p *delaunay) iterate(t *vm.Thread, iter int) bool {
	t.InFrame(2, func(f *vm.Frame) {
		// Transient refinement scratch (collected normally).
		for j := 0; j < delaunayTempsPer; j++ {
			f.Set(0, t.New(p.temp))
		}
		if iter < delaunayGrowIters {
			// Grow the mesh: triangles chained into the mesh list.
			for j := 0; j < delaunayTrisPerIter; j++ {
				tri := t.New(p.tri)
				f.Set(0, tri)
				node := t.New(p.node)
				f.Set(1, node)
				t.Store(node, 0, tri)
				t.Store(node, 1, t.LoadGlobal(p.meshG))
				t.StoreGlobal(p.meshG, node)
			}
		} else if iter == delaunayGrowIters {
			// Refinement done: the mesh is dropped (the program held it
			// "longer than it should", but it is bounded).
			t.StoreGlobal(p.meshG, heap.Null)
		}
	})

	// Touch the most recently created part of the mesh.
	cur := t.LoadGlobal(p.meshG)
	for i := 0; i < delaunayTouchWindow && !cur.IsNull(); i++ {
		t.Load(cur, 0)
		cur = t.Load(cur, 1)
	}
	return iter >= delaunayIters-1
}
