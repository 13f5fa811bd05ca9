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
// flags are not zero — it loads before it stores, it does not assume.
func TestHeaderInvariantsAcrossRecycling(t *testing.T) {
	for _, generational := range []bool{false, true} {
		for _, stale := range []uint8{0, 3, MaxStale} {
			for _, logged := range []bool{false, true} {
				for _, how := range []string{"Free", "FreeBatch", "dirtied"} {
					name := fmt.Sprintf("generational=%v/stale=%d/logged=%v/%s", generational, stale, logged, how)
					t.Run(name, func(t *testing.T) {
						reg := NewRegistry()
						cls := reg.Define("N", 2, 24)
						h := New(reg, 1<<20)
						if generational {
							h.EnableGenerations()
						}
						ctx := h.NewAllocContext()
						alloc := func() (ObjectID, *Object) {
							r, err := h.AllocateCtx(&ctx, cls)
							if err != nil {
								t.Fatal(err)
							}
							return r.ID(), h.Get(r)
						}

						id, obj := alloc()
						fresh := headerOf(obj)
						wantFlags := uint32(0)
						if generational {
							wantFlags = flagYoung
						}
						if want := (header{class: cls, flags: wantFlags, size: ObjectSize(2, 24), refs: 2}); fresh != want {
							t.Fatalf("fresh slot header %+v, want %+v", fresh, want)
						}

						// Age and flag the object the way collections and the
						// write barrier do, then let it die.
						obj.SetStale(stale)
						obj.SetRef(1, MakeRef(id))
						if logged && !obj.TryLog() {
							t.Fatal("TryLog on a fresh object failed")
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
						if how == "dirtied" {
							// Behind the allocator's back: the invariant above
							// is broken before the slot is handed out again.
							atomic.StoreUint32(&obj.stale, uint32(stale)|1)
							atomic.StoreUint32(&obj.flags, flagLogged|flagYoung)
						}

						again, reborn := alloc()
						if again != id {
							t.Fatalf("re-allocation got slot %d, not the freed slot %d: the test is not exercising recycling", again, id)
						}
						if got := headerOf(reborn); got != fresh {
							t.Fatalf("recycled slot header %+v, fresh slot's was %+v", got, fresh)
						}
						if reborn.Ref(0) != Null || reborn.Ref(1) != Null {
							t.Fatalf("recycled slot's references not cleared: %v %v", reborn.Ref(0), reborn.Ref(1))
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
