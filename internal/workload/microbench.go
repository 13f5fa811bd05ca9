package workload

import (
	"leakpruning/internal/heap"
	"leakpruning/internal/vm"
)

// This file provides the non-leaking benchmark suite used for the overhead
// experiments (§5, Figures 6 and 7), standing in for DaCapo, pseudojbb, and
// SPECjvm98. Each benchmark maintains a steady-state live working set and
// performs a characteristic mix of reference loads, pointer chases, and
// transient allocation; the mixes vary so the suite exercises the read
// barrier from "almost every operation is a load" down to "mostly
// allocation", producing a spread of overheads like the paper's Figure 6.

// Sizer is implemented by programs that know their minimum heap size, so
// the Figure 7 harness can run them at 1.5×–5× the minimum.
type Sizer interface {
	MinHeap() uint64
}

type microBench struct {
	name      string
	liveSlots int // entries in the live working set
	chase     int // chain length per entry (pointer-chase depth)
	payload   int // payload bytes per chain node
	allocs    int // transient allocations per iteration
	loads     int // chases per iteration
	replace   int // working-set entries replaced per iteration
	hotWindow int // distinct working-set entries chased per iteration

	ring  heap.ClassID
	node  heap.ClassID
	temp  heap.ClassID
	ringG int
	rnd   *rng
}

var microBenchNames []string

func registerMicro(m *microBench) {
	name := m.name
	register(name, false, func() Program {
		c := *m
		c.rnd = newRNG(uint64(len(name))*0x1337 + uint64(name[0]))
		return &c
	})
	microBenchNames = append(microBenchNames, name)
}

// MicroBenchNames lists the non-leaking overhead suite in Figure 6 order.
func MicroBenchNames() []string { return append([]string(nil), microBenchNames...) }

func init() {
	// Named after the paper's Figure 6 benchmarks; parameters chosen to
	// span read-heavy (high barrier overhead) to alloc-heavy (low).
	for _, m := range []*microBench{
		{name: "antlr", liveSlots: 512, chase: 6, payload: 64, allocs: 10, loads: 1400, replace: 2, hotWindow: 12},
		{name: "bloat", liveSlots: 768, chase: 8, payload: 48, allocs: 8, loads: 1800, replace: 2, hotWindow: 10},
		{name: "chart", liveSlots: 256, chase: 4, payload: 256, allocs: 20, loads: 800, replace: 3, hotWindow: 16},
		{name: "eclipse", liveSlots: 1024, chase: 10, payload: 96, allocs: 12, loads: 2400, replace: 3, hotWindow: 12},
		{name: "fop", liveSlots: 384, chase: 5, payload: 128, allocs: 15, loads: 1000, replace: 2, hotWindow: 14},
		{name: "hsqldb", liveSlots: 896, chase: 7, payload: 80, allocs: 9, loads: 1600, replace: 2, hotWindow: 10},
		{name: "jython", liveSlots: 512, chase: 9, payload: 40, allocs: 11, loads: 2000, replace: 2, hotWindow: 8},
		{name: "luindex", liveSlots: 320, chase: 4, payload: 160, allocs: 18, loads: 900, replace: 3, hotWindow: 16},
		{name: "lusearch", liveSlots: 448, chase: 6, payload: 72, allocs: 14, loads: 1400, replace: 2, hotWindow: 12},
		{name: "pmd", liveSlots: 640, chase: 8, payload: 56, allocs: 10, loads: 1700, replace: 2, hotWindow: 10},
		{name: "xalan", liveSlots: 512, chase: 5, payload: 112, allocs: 22, loads: 1100, replace: 4, hotWindow: 14},
		{name: "pseudojbb", liveSlots: 768, chase: 6, payload: 144, allocs: 16, loads: 1300, replace: 3, hotWindow: 12},
	} {
		registerMicro(m)
	}
}

func (m *microBench) Name() string { return m.name }

func (m *microBench) Description() string {
	return "non-leaking overhead benchmark (steady working set; load/alloc mix)"
}

// MinHeap returns the smallest heap the benchmark runs in: its steady live
// set plus headroom for one iteration's transient allocation.
func (m *microBench) MinHeap() uint64 {
	nodeSize := heap.ObjectSize(1, m.payload)
	live := uint64(m.liveSlots)*uint64(m.chase)*nodeSize +
		heap.ObjectSize(m.liveSlots, 0)
	transient := uint64(m.allocs+m.replace*m.chase) * nodeSize
	return live + transient + (64 << 10)
}

func (m *microBench) DefaultHeap() uint64 { return 2 * m.MinHeap() }

func (m *microBench) Setup(t *vm.Thread) {
	v := t.VM()
	m.ring = v.DefineClass(m.name+".WorkingSet", 0, 0)
	m.node = v.DefineClass(m.name+".Node", 1, m.payload)
	m.temp = v.DefineClass(m.name+".Temp", 0, m.payload)
	m.ringG = v.AddGlobal()

	t.InFrame(1, func(f *vm.Frame) {
		ring := t.New(m.ring, heap.WithRefSlots(m.liveSlots))
		f.Set(0, ring)
		t.StoreGlobal(m.ringG, ring)
		for i := 0; i < m.liveSlots; i++ {
			m.buildChain(t, ring, i)
		}
	})
}

// buildChain replaces slot i of the working set with a fresh chain.
func (m *microBench) buildChain(t *vm.Thread, ring heap.Ref, i int) {
	head := t.New(m.node)
	t.Store(ring, i, head)
	cur := head
	for d := 1; d < m.chase; d++ {
		n := t.New(m.node)
		t.Store(cur, 0, n)
		cur = n
	}
}

func (m *microBench) Iterate(t *vm.Thread, iter int) bool { return held(t, iter, m.iterate) }

func (m *microBench) iterate(t *vm.Thread, iter int) bool {
	ring := t.LoadGlobal(m.ringG)

	// Pointer-chase loads over the working set: the barrier-dominated
	// part. Each iteration revisits a small hot window of entries many
	// times, giving the temporal reuse real programs have — most loads hit
	// the barrier's untagged fast path, and only the first touch of a
	// reference after a collection runs the cold path.
	hot := m.rnd.intn(m.liveSlots)
	for j := 0; j < m.loads; j++ {
		cur := t.Load(ring, (hot+j%m.hotWindow)%m.liveSlots)
		for !cur.IsNull() {
			cur = t.Load(cur, 0)
		}
	}

	// Transient allocation (collected by the next GC).
	t.InFrame(1, func(f *vm.Frame) {
		for j := 0; j < m.allocs; j++ {
			f.Set(0, t.New(m.temp))
		}
	})

	// Churn part of the working set so the heap composition turns over.
	for j := 0; j < m.replace; j++ {
		m.buildChain(t, ring, m.rnd.intn(m.liveSlots))
	}
	return false
}
