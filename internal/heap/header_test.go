package heap

import (
	"fmt"
	"sync/atomic"
	"testing"
	"unsafe"
)

// header is every Object word the allocator is responsible for except mark
// (deliberately kept across recycling, see allocate). stale is the raw
// stale word, a clock position.
type header struct {
	class        ClassID
	stale, flags uint32
	size         uint64
	refs         int
}

func headerOf(o *Object) header {
	return header{class: o.Class(), stale: o.StalePos(), flags: atomic.LoadUint32(&o.flags),
		size: o.Size(), refs: o.NumRefs()}
}

// TestObjectIsOneCacheLine pins the table entry's layout: 64 bytes, in
// chunks whose base addresses are 64-aligned, so no entry straddles two
// cache lines.
func TestObjectIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Object{}); n != 64 {
		t.Fatalf("sizeof(Object) = %d, want 64", n)
	}
	reg := NewRegistry()
	cls := reg.Define("N", 1, 0)
	h := New(reg, 1<<30)
	ctx := h.NewAllocContext()
	for i := 0; i < 3*chunkSize; i++ {
		if _, err := h.AllocateCtx(&ctx, cls); err != nil {
			t.Fatal(err)
		}
	}
	chunks := *h.chunks.Load()
	if len(chunks) < 3 {
		t.Fatalf("%d chunks after %d allocations, want at least 3", len(chunks), 3*chunkSize)
	}
	for ci, c := range chunks {
		if base := uintptr(unsafe.Pointer(c)); base%64 != 0 {
			t.Errorf("chunk %d at %#x is not 64-aligned", ci, base)
		}
	}
}

// aliasesChunk reports whether the n words at p, or the capacity word
// before them, lie inside any chunk of the object table.
func aliasesChunk(h *Heap, p unsafe.Pointer, n int) bool {
	lo := uintptr(p) - RefSlotBytes
	hi := uintptr(p) + uintptr(n)*RefSlotBytes
	for _, c := range *h.chunks.Load() {
		base := uintptr(unsafe.Pointer(c))
		if lo < base+unsafe.Sizeof(*c) && base < hi {
			return true
		}
	}
	return false
}

// TestHeaderInvariantsAcrossRecycling pins what lets birth and death skip
// header stores: a freed slot's header is all zero but for the stale word,
// which death leaves and birth sets to the clock's position (so allocate
// may load flags and find it right), a recycled slot's header equals a
// never-used slot's, and allocate still initialises a slot whose stale
// word or flags are not what birth wants — it loads flags before it
// stores, it does not assume. The
// object dies at any stale value, resident or offloaded (the one flag bit,
// which death must clear along with its disk charge), alone or beside a
// partner in one FreeBatch call, or through a Freer the way the sweep frees
// it (Free as it reads the entry, then Flush), and with its class's shape
// or a per-allocation one (the array path through allocate's opts). Every
// death leaves size, class, the whole shape word (home shard included) and
// flags zero, and keeps refs, so a later birth can reuse a separate array.
// The ladder shape recycles one slot through 0, 2, 4, 5, 9 reference slots
// and back down, across the inline boundary both ways: each birth has the
// right NumRefs and null slots, keeps up to inlineRefs of them in its own
// entry, never has a separate array that aliases any table entry, and
// reuses the slot's separate array when it is large enough.
func TestHeaderInvariantsAcrossRecycling(t *testing.T) {
	shapes := map[string][][]AllocOption{
		"class":  {nil, nil},
		"array":  {{WithRefSlots(4), WithScalarBytes(40)}, {WithRefSlots(4), WithScalarBytes(40)}},
		"ladder": nil,
	}
	for _, n := range []int{0, 2, 4, 5, 9, 5, 4, 2, 0} {
		shapes["ladder"] = append(shapes["ladder"], []AllocOption{WithRefSlots(n)})
	}
	for _, stale := range []uint8{0, 3, MaxStale} {
		for _, offloaded := range []bool{false, true} {
			for _, shape := range []string{"class", "array", "ladder"} {
				for _, how := range []string{"FreeBatch", "batched", "dirtied", "swept"} {
					name := fmt.Sprintf("stale=%d/offloaded=%v/shape=%s/%s", stale, offloaded, shape, how)
					t.Run(name, func(t *testing.T) {
						reg := NewRegistry()
						cls := reg.Define("N", 2, 24)
						h := New(reg, 1<<20)
						h.SetDiskLimit(1 << 20)
						ctx := h.NewAllocContext()
						alloc := func(opts []AllocOption) (ObjectID, *Object) {
							r, err := h.AllocateCtx(&ctx, cls, opts...)
							if err != nil {
								t.Fatal(err)
							}
							return r.ID(), h.Get(r)
						}
						// spare is each slot's separate array as of its last
						// birth, which a wider birth that fits it must reuse.
						spare := map[*Object]unsafe.Pointer{}
						// born checks a birth against the shape it was asked for.
						born := func(stage string, obj *Object, opts []AllocOption) header {
							t.Helper()
							refSlots, scalarBytes := h.ResolveShape(cls, opts)
							got := headerOf(obj)
							if want := (header{class: cls, stale: h.Clock().Now(), size: ObjectSize(refSlots, scalarBytes), refs: refSlots}); got != want {
								t.Fatalf("%s: header %+v, want %+v", stage, got, want)
							}
							for slot := 0; slot < obj.NumRefs(); slot++ {
								if obj.Ref(slot) != Null {
									t.Fatalf("%s: reference %d not null at birth: %v", stage, slot, obj.Ref(slot))
								}
							}
							inline := obj.refs == unsafe.Pointer(&obj.inline)
							if inline != (refSlots <= inlineRefs) {
								t.Fatalf("%s: %d slots inline=%v", stage, refSlots, inline)
							}
							if inline {
								delete(spare, obj)
							} else {
								if c := obj.spareCap(); c < refSlots {
									t.Fatalf("%s: %d slots in a separate array of capacity %d", stage, refSlots, c)
								}
								if aliasesChunk(h, obj.refs, obj.spareCap()) {
									t.Fatalf("%s: separate array aliases the object table", stage)
								}
								if old, ok := spare[obj]; ok && obj.refs != old &&
									*(*uint64)(unsafe.Add(old, -RefSlotBytes)) >= uint64(refSlots) {
									t.Fatalf("%s: %d slots got a new array, not the slot's own that fits them", stage, refSlots)
								}
								spare[obj] = obj.refs
							}
							return got
						}

						steps := shapes[shape]
						id, obj := alloc(steps[0])
						born("fresh slot", obj, steps[0])
						for i, opts := range steps[1:] {
							// Age (and offload) the object the way collections
							// do, then let it die.
							h.SetStale(obj, stale)
							if obj.NumRefs() > 1 {
								obj.SetRef(1, MakeRef(id))
							}
							if offloaded {
								if err := h.Offload(id); err != nil || !obj.IsOffloaded() {
									t.Fatalf("offload of a live object: %v", err)
								}
							}
							dead := []ObjectID{id}
							var partner *Object
							if how == "batched" {
								pid, p := alloc(nil)
								// id last: it goes on top, so it is handed out first.
								dead, partner = []ObjectID{pid, id}, p
							}
							h.ReleaseContext(&ctx) // the freed slots go on top of the settled run
							refs := obj.refs
							if how == "swept" {
								f := h.NewFreer()
								f.Free(id, obj)
								f.Flush()
							} else {
								h.FreeBatch(dead)
							}
							if got := headerOf(obj); got != (header{stale: got.stale}) || obj.shape != 0 {
								t.Fatalf("after %s: header %+v, shape %#x; want every word but stale zero", how, got, obj.shape)
							}
							if obj.refs != refs {
								t.Fatalf("after %s: refs moved from %p to %p; death keeps the slot's array", how, refs, obj.refs)
							}
							if partner != nil {
								if got := headerOf(partner); got != (header{stale: got.stale}) {
									t.Fatalf("after %s: the partner's header %+v, want every word but stale zero", how, got)
								}
							}
							if d := h.Disk(); d.BytesUsed != 0 {
								t.Fatalf("after %s: disk still charged %d bytes", how, d.BytesUsed)
							}
							if how == "dirtied" {
								// Behind the allocator's back: the invariant above
								// is broken before the slot is handed out again.
								atomic.StoreUint32(&obj.stale, uint32(stale)|1)
								atomic.StoreUint32(&obj.flags, flagOffloaded)
							}
							again, reborn := alloc(opts)
							if again != id {
								t.Fatalf("re-allocation got slot %d, not the freed slot %d: the test is not exercising recycling", again, id)
							}
							recycled := born(fmt.Sprintf("birth %d", i+1), reborn, opts)
							neighbour := "never-used neighbour"
							if partner != nil {
								neighbour = "recycled partner"
							}
							nextID, next := alloc(opts)
							if partner != nil && nextID != dead[0] {
								t.Fatalf("the next allocation got slot %d, not the partner's %d", nextID, dead[0])
							}
							if born(neighbour, next, opts) != recycled {
								t.Fatalf("%s's header %+v differs from the recycled %+v", neighbour, headerOf(next), recycled)
							}
							obj = reborn
						}
						h.ReleaseContext(&ctx)
						auditMustBeClean(t, h, name)
					})
				}
			}
		}
	}
}
