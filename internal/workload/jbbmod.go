package workload

import (
	"leakpruning/internal/heap"
	"leakpruning/internal/vm"
)

// JbbMod reproduces Tang et al.'s modified SPECjbb2000 (§6), where much of
// the heap growth is stale rather than live. Orders accumulate in object
// arrays; a *phased* walk touches the array→order references every
// jbbModPhasePeriod iterations, so the Object[] → Order edge type's
// maxStaleUse climbs to ~5 and protects those references from pruning —
// exactly the behaviour that limits leak pruning on this program. The bulk
// under each order (order lines → strings → char arrays) is never touched
// and gets pruned, so leak pruning extends the run ~20× before the
// unprunable spine (blocks, orders, dates) exhausts memory. Disk-offloading
// systems (Melt, LeakSurvivor) tolerate this leak until the disk fills
// because they can move the stale-but-protected spine out of memory.

func init() {
	register("jbbmod", true, func() Program { return newJbbMod() })
}

type jbbMod struct {
	block heap.ClassID // OrderBlock: jbbModBlockSlots orders + next
	order heap.ClassID // JbbOrder: lines, date
	date  heap.ClassID // JbbDate
	line  heap.ClassID // JbbOrderLine: desc
	str   heap.ClassID // JbbString: value
	chars heap.ClassID // JbbCharArray
	temp  heap.ClassID // transient transaction scratch

	blocksG  int
	fillSlot int // next free slot in the head block
}

func newJbbMod() *jbbMod { return &jbbMod{fillSlot: jbbModBlockSlots} }

func (p *jbbMod) Name() string { return "jbbmod" }
func (p *jbbMod) Description() string {
	return "Tang et al.'s modified SPECjbb2000: mostly stale growth, with a phased Object[]->Order access pattern"
}
func (p *jbbMod) DefaultHeap() uint64 { return 8 << 20 }

const (
	jbbModBlockSlots  = 64
	jbbModOrdersPer   = 8
	jbbModPhasePeriod = 24 // the phased walk that raises maxStaleUse
	jbbModOrderBytes  = 40
	jbbModDateBytes   = 24
	jbbModLineBytes   = 60
	jbbModCharBytes   = 800
)

func (p *jbbMod) Setup(t *vm.Thread) {
	v := t.VM()
	p.block = v.DefineClass("ObjectArray", jbbModBlockSlots+1, 0) // slots + next
	p.order = v.DefineClass("JbbOrder", 2, jbbModOrderBytes)
	p.date = v.DefineClass("JbbDate", 0, jbbModDateBytes)
	p.line = v.DefineClass("JbbOrderLine", 1, jbbModLineBytes)
	p.str = v.DefineClass("JbbString", 1, 24)
	p.chars = v.DefineClass("JbbCharArray", 0, jbbModCharBytes)
	p.temp = v.DefineClass("JbbTxnTemp", 0, 128)
	p.blocksG = v.AddGlobal()
}

func (p *jbbMod) Iterate(t *vm.Thread, iter int) bool { return held(t, iter, p.iterate) }

func (p *jbbMod) iterate(t *vm.Thread, iter int) bool {
	t.InFrame(2, func(f *vm.Frame) {
		for j := 0; j < jbbModOrdersPer; j++ {
			if p.fillSlot >= jbbModBlockSlots {
				// Start a new order block at the head of the chain.
				blk := t.New(p.block)
				f.Set(1, blk)
				t.Store(blk, jbbModBlockSlots, t.LoadGlobal(p.blocksG))
				t.StoreGlobal(p.blocksG, blk)
				p.fillSlot = 0
			}
			order := t.New(p.order)
			f.Set(0, order)
			date := t.New(p.date)
			t.Store(order, 1, date)
			line := t.New(p.line)
			t.Store(order, 0, line)
			s := t.New(p.str)
			t.Store(line, 0, s)
			arr := t.New(p.chars)
			t.Store(s, 0, arr)

			head := t.LoadGlobal(p.blocksG)
			t.Store(head, p.fillSlot, order)
			p.fillSlot++
		}
	})

	churn(t, p.temp, 6)

	// The phased behaviour: every jbbModPhasePeriod iterations the program
	// walks every block and touches each Object[] → Order reference (but
	// nothing below the orders). The read barrier observes these uses at
	// staleness ~5 and raises the edge type's maxStaleUse accordingly.
	if iter%jbbModPhasePeriod == jbbModPhasePeriod-1 {
		blk := t.LoadGlobal(p.blocksG)
		for !blk.IsNull() {
			for s := 0; s < jbbModBlockSlots; s++ {
				r := t.Load(blk, s)
				_ = r
			}
			blk = t.Load(blk, jbbModBlockSlots)
		}
	}
	return false
}
