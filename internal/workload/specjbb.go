package workload

import (
	"fmt"

	"leakpruning/internal/heap"
	"leakpruning/internal/vm"
)

// SPECjbb2000 reproduces the benchmark's known slow leak (§6): an order
// processing list from which some orders are never removed. The program
// processes every order in the list each iteration — including the leaked
// ones — so the orders themselves are live and leak pruning cannot reclaim
// them. What it can reclaim is each order's detail record (untouched by
// processing) and a long tail of small dead types: never-used character-set
// objects in the class libraries and per-transaction scratch of many
// classes. The paper observes leak pruning reclaiming 82 distinct edge
// types, "sometimes netting fewer than 100 bytes", extending the run 4.7×
// until the program ultimately accesses a pruned reference.

func init() {
	register("specjbb", true, func() Program { return newSpecJBB() })
}

type specJBB struct {
	listNode heap.ClassID // OrderListNode: order, next
	order    heap.ClassID // Order
	detail   heap.ClassID // OrderDetail (dead after creation)

	charsets     []heap.ClassID // Charset###: table
	charsetTable heap.ClassID
	scratch      []heap.ClassID // TxnScratch##
	scratchChain heap.ClassID
	temp         heap.ClassID // transient transaction scratch

	ordersG   int
	charsetsG int
	scratchG  int
}

func newSpecJBB() *specJBB { return &specJBB{} }

func (p *specJBB) Name() string { return "specjbb" }
func (p *specJBB) Description() string {
	return "SPECjbb2000's slow leak: live order list growth plus dead order details and unused library objects"
}
func (p *specJBB) DefaultHeap() uint64 { return 4 << 20 }

const (
	jbbOrdersPerIter  = 15
	jbbDetailBytes    = 420
	jbbOrderBytes     = 112
	jbbCharsetClasses = 30
	jbbCharsetBytes   = 2048
	jbbCharsetPeriod  = 120 // used charsets are touched this often
	jbbScratchClasses = 40
	jbbScratchBytes   = 90
	jbbScratchPerIter = 6
)

func (p *specJBB) Setup(t *vm.Thread) {
	v := t.VM()
	p.listNode = v.DefineClass("OrderListNode", 2, 0)
	p.order = v.DefineClass("Order", 1, jbbOrderBytes)
	p.detail = v.DefineClass("OrderDetail", 0, jbbDetailBytes)
	p.charsetTable = v.DefineClass("CharsetTable", 0, jbbCharsetBytes)
	p.charsets = make([]heap.ClassID, jbbCharsetClasses)
	for i := range p.charsets {
		p.charsets[i] = v.DefineClass(fmt.Sprintf("Charset%03d", i), 1, 48)
	}
	p.scratchChain = v.DefineClass("ScratchChainNode", 2, 0)
	p.scratch = make([]heap.ClassID, jbbScratchClasses)
	for i := range p.scratch {
		p.scratch[i] = v.DefineClass(fmt.Sprintf("TxnScratch%02d", i), 0, jbbScratchBytes)
	}
	p.temp = v.DefineClass("TxnTemp", 0, 128)
	p.ordersG = v.AddGlobal()
	p.charsetsG = v.AddGlobal()
	p.scratchG = v.AddGlobal()

	// The "class libraries": one object per charset, chained. Half of them
	// are used by the application on a long period; the other half are
	// never used after startup (those are the harmless prunes).
	t.InFrame(2, func(f *vm.Frame) {
		for i := 0; i < jbbCharsetClasses; i++ {
			cs := t.New(p.charsets[i])
			f.Set(0, cs)
			table := t.New(p.charsetTable)
			t.Store(cs, 0, table)
			node := t.New(p.listNode) // reuse the list node shape for the chain
			f.Set(1, node)
			t.Store(node, 0, cs)
			t.Store(node, 1, t.LoadGlobal(p.charsetsG))
			t.StoreGlobal(p.charsetsG, node)
		}
	})
}

func (p *specJBB) Iterate(t *vm.Thread, iter int) bool { return held(t, iter, p.iterate) }

func (p *specJBB) iterate(t *vm.Thread, iter int) bool {
	t.InFrame(2, func(f *vm.Frame) {
		// New-order transactions: each order lands in the processing list
		// (the leak: some are never removed — here, none are) with a detail
		// record that processing never revisits.
		for j := 0; j < jbbOrdersPerIter; j++ {
			order := t.New(p.order)
			f.Set(0, order)
			detail := t.New(p.detail)
			t.Store(order, 0, detail)
			node := t.New(p.listNode)
			f.Set(1, node)
			t.Store(node, 0, order)
			t.Store(node, 1, t.LoadGlobal(p.ordersG))
			t.StoreGlobal(p.ordersG, node)
		}
		// Per-transaction scratch of many distinct classes, retired into a
		// bounded-use (but reachable) chain that is never read: a long tail
		// of small dead edge types.
		for j := 0; j < jbbScratchPerIter; j++ {
			class := p.scratch[(iter*jbbScratchPerIter+j)%jbbScratchClasses]
			s := t.New(class)
			f.Set(0, s)
			node := t.New(p.scratchChain)
			f.Set(1, node)
			t.Store(node, 0, s)
			t.Store(node, 1, t.LoadGlobal(p.scratchG))
			t.StoreGlobal(p.scratchG, node)
		}
	})

	churn(t, p.temp, 10)

	// Order processing walks the whole list, touching every order —
	// including the leaked ones, which is why this leak is live (§6).
	cur := t.LoadGlobal(p.ordersG)
	for !cur.IsNull() {
		t.Load(cur, 0)
		cur = t.Load(cur, 1)
	}

	// The used half of the charsets is touched on a long period.
	if iter%jbbCharsetPeriod == 0 {
		idx := 0
		cur = t.LoadGlobal(p.charsetsG)
		for !cur.IsNull() {
			if idx%2 == 0 {
				cs := t.Load(cur, 0)
				t.Load(cs, 0)
			}
			cur = t.Load(cur, 1)
			idx++
		}
	}
	return false
}
