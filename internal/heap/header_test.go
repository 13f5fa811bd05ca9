package heap

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// header is every Object word the allocator is responsible for except mark
// (deliberately kept across recycling, see allocate).
type header struct {
	class        ClassID
	stale, flags uint32
	size         uint64
	refs         int
}

func headerOf(o *Object) header {
	return header{class: o.Class(), stale: uint32(o.Stale()), flags: atomic.LoadUint32(&o.flags),
		size: o.Size(), refs: len(o.refs)}
}

// TestHeaderInvariantsAcrossRecycling pins what lets birth and death skip
// header stores: a freed slot's header is all zero (so allocate may load
// stale and flags and find them right), a recycled slot's header equals a
// never-used slot's, and allocate still initialises a slot whose stale or
// flags are not zero — it loads before it stores, it does not assume. The
// object dies at any stale value, resident or offloaded (the one flag bit,
// which Free must clear along with its disk charge), and with its class's
// shape or a per-allocation one (the array path through allocate's opts).
func TestHeaderInvariantsAcrossRecycling(t *testing.T) {
	shapes := map[string][]AllocOption{
		"class": nil,
		"array": {WithRefSlots(4), WithScalarBytes(40)},
	}
	for _, stale := range []uint8{0, 3, MaxStale} {
		for _, offloaded := range []bool{false, true} {
			for _, shape := range []string{"class", "array"} {
				for _, how := range []string{"Free", "FreeBatch", "dirtied"} {
					name := fmt.Sprintf("stale=%d/offloaded=%v/shape=%s/%s", stale, offloaded, shape, how)
					t.Run(name, func(t *testing.T) {
						reg := NewRegistry()
						cls := reg.Define("N", 2, 24)
						h := New(reg, 1<<20)
						h.SetDiskLimit(1 << 20)
						ctx := h.NewAllocContext()
						opts := shapes[shape]
						alloc := func() (ObjectID, *Object) {
							r, err := h.AllocateCtx(&ctx, cls, opts...)
							if err != nil {
								t.Fatal(err)
							}
							return r.ID(), h.Get(r)
						}

						id, obj := alloc()
						fresh := headerOf(obj)
						refSlots, scalarBytes := h.ResolveShape(cls, opts)
						if want := (header{class: cls, size: ObjectSize(refSlots, scalarBytes), refs: refSlots}); fresh != want {
							t.Fatalf("fresh slot header %+v, want %+v", fresh, want)
						}

						// Age (and offload) the object the way collections
						// do, then let it die.
						obj.SetStale(stale)
						obj.SetRef(1, MakeRef(id))
						if offloaded {
							if err := h.Offload(id); err != nil || !obj.IsOffloaded() {
								t.Fatalf("offload of a fresh object: %v", err)
							}
						}
						h.ReleaseContext(&ctx) // the freed slot goes on top of the settled run
						if how == "FreeBatch" {
							h.FreeBatch([]ObjectID{id})
						} else {
							h.Free(id)
						}
						if got := headerOf(obj); got != (header{}) {
							t.Fatalf("after %s: header %+v, want every word zero", how, got)
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

						again, reborn := alloc()
						if again != id {
							t.Fatalf("re-allocation got slot %d, not the freed slot %d: the test is not exercising recycling", again, id)
						}
						if got := headerOf(reborn); got != fresh {
							t.Fatalf("recycled slot header %+v, fresh slot's was %+v", got, fresh)
						}
						for slot := 0; slot < reborn.NumRefs(); slot++ {
							if reborn.Ref(slot) != Null {
								t.Fatalf("recycled slot's reference %d not cleared: %v", slot, reborn.Ref(slot))
							}
						}
						if _, next := alloc(); headerOf(next) != fresh {
							t.Fatalf("never-used neighbour's header %+v differs from %+v", headerOf(next), fresh)
						}
						h.ReleaseContext(&ctx)
						auditMustBeClean(t, h, name)
					})
				}
			}
		}
	}
}
