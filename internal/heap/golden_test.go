package heap

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/alloc_ids.golden from this build")

// scriptHeap is the allocator API allocScript drives: a *Heap, or idModel.
type scriptHeap interface {
	NewAllocContext() AllocContext
	AllocateCtx(*AllocContext, ClassID, ...AllocOption) (Ref, error)
	ReleaseContext(*AllocContext)
	FreeBatch([]ObjectID)
	Allocate(ClassID, ...AllocOption) (Ref, error)
}

// allocScript drives one allocation context at a time through allocations,
// ascending FreeBatches (the sweep's order), releases, context reuse and
// context-less allocations on the allocator newHeap returns, and returns
// every ID handed out, in order. It uses only the exported allocator API,
// so the same script runs against any commit: testdata/alloc_ids.golden
// was written by it.
func allocScript(t *testing.T, newHeap func(*Registry) scriptHeap) []ObjectID {
	t.Helper()
	reg := NewRegistry()
	small := reg.Define("Small", 1, 8)
	big := reg.Define("Big", 3, 200)
	h := newHeap(reg)

	var out, live []ObjectID
	rnd := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int { // xorshift: the script must not depend on math/rand's stream
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return int(rnd % uint64(n))
	}
	record := func(r Ref, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r.ID())
		live = append(live, r.ID())
	}
	freeSome := func(oneIn int) {
		var dead, keep []ObjectID
		for _, id := range live {
			if next(oneIn) == 0 {
				dead = append(dead, id)
			} else {
				keep = append(keep, id)
			}
		}
		sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
		h.FreeBatch(dead)
		live = keep
	}

	ctx := h.NewAllocContext()
	for round := 0; round < 40; round++ {
		// Burst lengths straddle the run length and the request shape.
		n := []int{1, 3, 40, 63, 64, 65, 130, 7}[round%8]
		for i := 0; i < n; i++ {
			cls := small
			if next(5) == 0 {
				cls = big
			}
			if next(11) == 0 {
				record(h.AllocateCtx(&ctx, cls, WithRefSlots(next(6))))
			} else {
				record(h.AllocateCtx(&ctx, cls))
			}
		}
		h.ReleaseContext(&ctx)
		switch round % 4 {
		case 0:
			freeSome(2)
		case 1:
			// Reuse the released context without a collection in between.
		case 2:
			freeSome(3)
			for i := next(4); i >= 0; i-- {
				record(h.Allocate(small))
			}
		case 3:
			freeSome(5)
			ctx = h.NewAllocContext() // the next request's thread
		}
	}
	h.ReleaseContext(&ctx)
	return out
}

// idModel is the allocator as allocScript sees it, one slot at a time: one
// LIFO free list; a context's run is up to freshBlock slots popped off it,
// with freshBlock fresh IDs pushed on in descending order first when it is
// empty; releasing a context pushes its unused slots back, last popped
// first.
type idModel struct {
	free  []ObjectID
	fresh ObjectID // the last ID carved
}

func (m *idModel) NewAllocContext() AllocContext { return AllocContext{} }

func (m *idModel) AllocateCtx(c *AllocContext, _ ClassID, _ ...AllocOption) (Ref, error) {
	if c.next == c.n {
		if len(m.free) == 0 {
			for id := m.fresh + freshBlock; id > m.fresh; id-- {
				m.free = append(m.free, id)
			}
			m.fresh += freshBlock
		}
		c.next, c.n = 0, 0
		for ; c.n < freshBlock && len(m.free) > 0; c.n++ {
			c.run[c.n], m.free = m.free[len(m.free)-1], m.free[:len(m.free)-1]
		}
	}
	c.next++
	return MakeRef(c.run[c.next-1]), nil
}

func (m *idModel) ReleaseContext(c *AllocContext) {
	for ; c.n > c.next; c.n-- {
		m.free = append(m.free, c.run[c.n-1])
	}
}

func (m *idModel) FreeBatch(ids []ObjectID) { m.free = append(m.free, ids...) }

func (m *idModel) Allocate(cls ClassID, opts ...AllocOption) (Ref, error) {
	c := m.NewAllocContext()
	defer m.ReleaseContext(&c)
	return m.AllocateCtx(&c, cls, opts...)
}

// TestAllocIDsMatchGolden pins the single-context ID sequence: runs are an
// implementation detail a mutator cannot observe, but replay, trace-smoke
// and the chaos live-set hashes compare IDs across builds. The heap must
// hand out the IDs idModel does, so the golden is what the model says, not
// only what some earlier build did.
func TestAllocIDsMatchGolden(t *testing.T) {
	const path = "testdata/alloc_ids.golden"
	var h *Heap
	got := allocScript(t, func(reg *Registry) scriptHeap { h = New(reg, 1<<24); return h })
	auditMustBeClean(t, h, "after the allocation script")
	model := allocScript(t, func(*Registry) scriptHeap { return new(idModel) })
	for i, id := range got {
		if i >= len(model) || id != model[i] {
			t.Fatalf("allocation %d of %d got ID %d, the model hands out %v", i, len(got), id, model[i:min(i+1, len(model))])
		}
	}
	if len(model) != len(got) {
		t.Fatalf("script made %d allocations on the heap, %d on the model", len(got), len(model))
	}
	var b strings.Builder
	for i, id := range got {
		sep := " "
		if i%16 == 15 {
			sep = "\n"
		}
		fmt.Fprintf(&b, "%d%s", id, sep)
	}
	text := strings.TrimRight(b.String(), " \n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if text == string(want) {
		return
	}
	wantIDs := strings.Fields(string(want))
	for i, id := range got {
		if i >= len(wantIDs) || fmt.Sprint(id) != wantIDs[i] {
			t.Fatalf("allocation %d of %d got ID %d, golden has %v", i, len(got), id, wantIDs[i:min(i+1, len(wantIDs))])
		}
	}
	t.Fatalf("script made %d allocations, golden has %d", len(got), len(wantIDs))
}
