package workload

import (
	"leakpruning/internal/heap"
	"leakpruning/internal/vm"
)

// EclipseDiff reproduces Eclipse bug #115789 (§6): each structural compare
// creates a NavigationHistory entry pointing to a ResourceCompareInput;
// Eclipse traverses the history and touches the entries and inputs (live),
// but a large subtree of diff results rooted at each input is dead. Leak
// pruning selects and prunes edge types with source ResourceCompareInput,
// turning a fast-growing leak into the slow growth of the tiny live part.
//
// The "fixed" variant models the patch the authors reported: the diff
// results are simply not stored in the input, giving the flat
// reachable-memory line in Figure 1.

func init() {
	register("eclipsediff", true, func() Program { return newEclipseDiff(false) })
	register("eclipsediff-fixed", false, func() Program { return newEclipseDiff(true) })
}

type eclipseDiff struct {
	fixed bool

	entry    heap.ClassID // NavigationHistoryEntry: next, input
	input    heap.ClassID // ResourceCompareInput: diffRoot, metadata
	diffNode heap.ClassID // DiffNode: fanout children + payload
	metadata heap.ClassID // CompareMetadata
	scratch  heap.ClassID // transient compare scratch

	regNode heap.ClassID // plugin registry list node: descriptor, next
	plugin  heap.ClassID // PluginDescriptor: config
	config  heap.ClassID // PluginConfig

	head    int
	regHead int
}

func newEclipseDiff(fixed bool) *eclipseDiff { return &eclipseDiff{fixed: fixed} }

func (p *eclipseDiff) Name() string {
	if p.fixed {
		return "eclipsediff-fixed"
	}
	return "eclipsediff"
}

func (p *eclipseDiff) Description() string {
	if p.fixed {
		return "EclipseDiff with the leak manually fixed (diff results dropped after use)"
	}
	return "Eclipse bug #115789: NavigationHistory entries keep dead diff-result subtrees reachable"
}

func (p *eclipseDiff) DefaultHeap() uint64 { return 4 << 20 }

const (
	diffFanout       = 4
	diffDepth        = 2 // 1 + 4 + 16 = 21 nodes per diff tree
	diffNodePayload  = 2048
	diffMetadataSize = 128

	// The plugin registry is live but visited rarely: the default
	// algorithm protects it (its edge types acquire a saturated
	// maxStaleUse on first reuse), while the most-stale baseline
	// eventually prunes it and traps — Table 2's EclipseDiff contrast.
	diffRegistrySize   = 30
	diffRegistryPeriod = 200
	diffRegConfigBytes = 1024
)

func (p *eclipseDiff) Setup(t *vm.Thread) {
	v := t.VM()
	p.entry = v.DefineClass("NavigationHistoryEntry", 2, 16)
	p.input = v.DefineClass("ResourceCompareInput", 2, 64)
	p.diffNode = v.DefineClass("DiffNode", diffFanout, diffNodePayload)
	p.metadata = v.DefineClass("CompareMetadata", 0, diffMetadataSize)
	p.scratch = v.DefineClass("CompareScratch", 0, 512)
	p.regNode = v.DefineClass("PluginRegistryNode", 2, 0)
	p.plugin = v.DefineClass("PluginDescriptor", 1, 64)
	p.config = v.DefineClass("PluginConfig", 0, diffRegConfigBytes)
	p.head = v.AddGlobal()
	p.regHead = v.AddGlobal()

	t.InFrame(1, func(f *vm.Frame) {
		for i := 0; i < diffRegistrySize; i++ {
			node := t.New(p.regNode)
			f.Set(0, node)
			desc := t.New(p.plugin)
			t.Store(node, 0, desc)
			cfg := t.New(p.config)
			t.Store(desc, 0, cfg)
			t.Store(node, 1, t.LoadGlobal(p.regHead))
			t.StoreGlobal(p.regHead, node)
		}
	})
}

// buildDiffTree allocates the diff-result tree top-down so every node is
// reachable from the frame slot throughout construction (a collection may
// run inside any allocation).
func (p *eclipseDiff) buildDiffTree(t *vm.Thread, f *vm.Frame, slot int) heap.Ref {
	root := t.New(p.diffNode)
	f.Set(slot, root)
	var fill func(parent heap.Ref, depth int)
	fill = func(parent heap.Ref, depth int) {
		if depth == 0 {
			return
		}
		for i := 0; i < diffFanout; i++ {
			child := t.New(p.diffNode)
			t.Store(parent, i, child)
			fill(child, depth-1)
		}
	}
	fill(root, diffDepth)
	return root
}

func (p *eclipseDiff) Iterate(t *vm.Thread, iter int) bool { return held(t, iter, p.iterate) }

func (p *eclipseDiff) iterate(t *vm.Thread, iter int) bool {
	t.InFrame(3, func(f *vm.Frame) {
		// Perform one structural compare: build the diff results.
		tree := p.buildDiffTree(t, f, 0)

		input := t.New(p.input)
		f.Set(1, input)
		if !p.fixed {
			// The leak: the input retains the whole result subtree.
			t.Store(input, 0, tree)
			meta := t.New(p.metadata)
			t.Store(input, 1, meta)
		}
		f.Set(0, heap.Null) // compare finished; results dead unless leaked

		// Record the compare in the NavigationHistory.
		entry := t.New(p.entry)
		f.Set(2, entry)
		t.Store(entry, 0, t.LoadGlobal(p.head))
		t.Store(entry, 1, input)
		t.StoreGlobal(p.head, entry)
	})

	churn(t, p.scratch, 6)

	// Eclipse traverses the NavigationHistory, touching every entry and its
	// ResourceCompareInput — this is why the entries and inputs are live —
	// but never descends into the diff results.
	cur := t.LoadGlobal(p.head)
	for !cur.IsNull() {
		t.Load(cur, 1) // the input
		cur = t.Load(cur, 0)
	}

	// The plugin registry is visited rarely: live, but highly stale in
	// between visits.
	if iter%diffRegistryPeriod == 0 {
		cur = t.LoadGlobal(p.regHead)
		for !cur.IsNull() {
			desc := t.Load(cur, 0)
			t.Load(desc, 0)
			cur = t.Load(cur, 1)
		}
	}
	return false
}
