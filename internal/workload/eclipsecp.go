package workload

import (
	"fmt"

	"leakpruning/internal/heap"
	"leakpruning/internal/vm"
)

// EclipseCP reproduces Eclipse bug #155889 (§6): repeatedly cutting and
// pasting a large text leaks the cut text. Each iteration creates a
// DefaultUndoManager$TextCommand and a DocumentEvent, both retaining a
// String whose character array holds the cut text; the undo history is
// traversed (commands and events live) but the strings are dead. On top of
// the fast leak, Eclipse-style object caches grow slowly and are touched on
// a rotation, and a plugin registry is live but visited rarely.
//
// The structure reproduces every Table 2 outcome:
//
//   - Default prunes TextCommand → String and DocumentEvent → String (the
//     biggest stale data structures) and runs an order of magnitude longer,
//     ultimately reclaiming many cache edge types as space tightens until a
//     pruned cache entry is touched.
//   - IndivRefs selects String → CharArray (the largest individual
//     targets), which also poisons the live cache strings' arrays — the
//     program traps soon after.
//   - MostStale prunes whatever is stalest, which includes the live plugin
//     registry, and traps at the next registry visit.

func init() {
	register("eclipsecp", true, func() Program { return newEclipseCP() })
}

type eclipseCP struct {
	command  heap.ClassID // DefaultUndoManager$TextCommand: fText
	event    heap.ClassID // DocumentEvent: fText
	str      heap.ClassID // String: value
	chars    heap.ClassID // CharArray
	undoNode heap.ClassID // undo history list node: command, event, next

	cacheNode    heap.ClassID // cache list node: entry, next
	cacheClasses []heap.ClassID

	scratch heap.ClassID // transient editor scratch
	regNode heap.ClassID // registry list node: descriptor, next
	plugin  heap.ClassID // PluginDescriptor: config
	config  heap.ClassID // PluginConfig

	undoHead  int
	cacheHead int
	regHead   int
}

func newEclipseCP() *eclipseCP { return &eclipseCP{} }

func (p *eclipseCP) Name() string { return "eclipsecp" }
func (p *eclipseCP) Description() string {
	return "Eclipse bug #155889: cut-save-paste-save leaks the cut text via undo commands and document events"
}
func (p *eclipseCP) DefaultHeap() uint64 { return 8 << 20 }

const (
	cutTextBytes      = 256 << 10 // the ~3 MB cut text, scaled to the simulated heap
	cpCacheClasses    = 128
	cpCachePerIter    = 4
	cpCacheBlobBytes  = 1024
	cpCacheRotation   = 16 // a cache entry is touched every 16 iterations
	cpRegistrySize    = 40
	cpRegistryPeriod  = 25 // the registry is visited every 25 iterations
	cpRegConfigBytes  = 2048
	cpUndoWindowBytes = 32
)

func (p *eclipseCP) Setup(t *vm.Thread) {
	v := t.VM()
	p.command = v.DefineClass("DefaultUndoManager$TextCommand", 1, cpUndoWindowBytes)
	p.event = v.DefineClass("DocumentEvent", 1, 48)
	p.str = v.DefineClass("String", 1, 24)
	p.chars = v.DefineClass("CharArray", 0, 0) // sized per allocation
	p.undoNode = v.DefineClass("UndoHistoryNode", 3, 0)

	p.cacheNode = v.DefineClass("CacheNode", 2, 0)
	p.cacheClasses = make([]heap.ClassID, cpCacheClasses)
	for i := range p.cacheClasses {
		p.cacheClasses[i] = v.DefineClass(fmt.Sprintf("CacheEntry%03d", i), 1, 32)
	}

	p.scratch = v.DefineClass("EditScratch", 0, 1024)
	p.regNode = v.DefineClass("RegistryNode", 2, 0)
	p.plugin = v.DefineClass("PluginDescriptor", 1, 64)
	p.config = v.DefineClass("PluginConfig", 0, cpRegConfigBytes)

	p.undoHead = v.AddGlobal()
	p.cacheHead = v.AddGlobal()
	p.regHead = v.AddGlobal()

	// Build the plugin registry: live for the whole run, visited rarely.
	t.InFrame(2, func(f *vm.Frame) {
		for i := 0; i < cpRegistrySize; i++ {
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

// newString allocates a String wrapping a fresh character array of the
// given size; the string is left in frame slot `slot`.
func (p *eclipseCP) newString(t *vm.Thread, f *vm.Frame, slot int, bytes int) heap.Ref {
	s := t.New(p.str)
	f.Set(slot, s)
	arr := t.New(p.chars, heap.WithScalarBytes(bytes))
	t.Store(s, 0, arr)
	return s
}

func (p *eclipseCP) Iterate(t *vm.Thread, iter int) bool { return held(t, iter, p.iterate) }

func (p *eclipseCP) iterate(t *vm.Thread, iter int) bool {
	t.InFrame(3, func(f *vm.Frame) {
		// One cut-save-paste-save: the undo manager records a TextCommand
		// and the editor fires a DocumentEvent, each holding the cut text.
		cmd := t.New(p.command)
		f.Set(0, cmd)
		cutText := p.newString(t, f, 1, cutTextBytes)
		t.Store(cmd, 0, cutText)

		ev := t.New(p.event)
		f.Set(1, ev)
		evText := p.newString(t, f, 2, cutTextBytes)
		t.Store(ev, 0, evText)

		node := t.New(p.undoNode)
		f.Set(2, node)
		t.Store(node, 0, cmd)
		t.Store(node, 1, ev)
		t.Store(node, 2, t.LoadGlobal(p.undoHead))
		t.StoreGlobal(p.undoHead, node)

		// The editor's object caches grow slowly: entries of many distinct
		// classes, each holding a String over a small character array. The
		// strings share the String → CharArray shape with the leaked cut
		// text, which is precisely what makes the individual-references
		// baseline select — and wrongly poison — the live cache arrays
		// (§6.1, Table 2).
		for j := 0; j < cpCachePerIter; j++ {
			class := p.cacheClasses[(iter*cpCachePerIter+j)%cpCacheClasses]
			entry := t.New(class)
			f.Set(0, entry)
			blobStr := t.New(p.str)
			t.Store(entry, 0, blobStr)
			blob := t.New(p.chars, heap.WithScalarBytes(cpCacheBlobBytes))
			t.Store(blobStr, 0, blob)
			cn := t.New(p.cacheNode)
			f.Set(1, cn)
			t.Store(cn, 0, entry)
			t.Store(cn, 1, t.LoadGlobal(p.cacheHead))
			t.StoreGlobal(p.cacheHead, cn)
		}
	})

	churn(t, p.scratch, 6)

	// Walk the undo history: commands and events stay live; their strings
	// are never touched again (the leak).
	cur := t.LoadGlobal(p.undoHead)
	for !cur.IsNull() {
		t.Load(cur, 0)
		t.Load(cur, 1)
		cur = t.Load(cur, 2)
	}

	// Rotate over the caches: every entry is touched (string and array
	// loaded) once every cpCacheRotation iterations.
	idx := 0
	cur = t.LoadGlobal(p.cacheHead)
	for !cur.IsNull() {
		if idx%cpCacheRotation == iter%cpCacheRotation {
			entry := t.Load(cur, 0)
			s := t.Load(entry, 0)
			t.Load(s, 0)
		}
		cur = t.Load(cur, 1)
		idx++
	}

	// Visit the plugin registry rarely: live, but highly stale in between.
	if iter%cpRegistryPeriod == 0 {
		cur = t.LoadGlobal(p.regHead)
		for !cur.IsNull() {
			desc := t.Load(cur, 0)
			t.Load(desc, 0)
			cur = t.Load(cur, 1)
		}
	}
	return false
}
