package edgetable

import (
	"testing"

	"leakpruning/internal/heap"
)

// FuzzEdgeTable drives a deliberately tiny table (8 slots, 16 possible edge
// types) with an arbitrary operation sequence and checks every step against
// a shadow map and a model of the paper's slot array (each slot holds its
// entry in place; linear probing from the table's hash). The properties
// under test are the table's degradation contract: no operation may panic,
// Len always equals the number of distinct inserted keys, every entry sits
// in the slot the slot model gives it, a full table (exactly Cap entries)
// routes new keys to the inert scratch entry and advances Overflows instead
// of evicting or corrupting an occupied slot, per-entry maxStaleUse and
// bytesUsed arithmetic (including decay and reset) matches a
// straightforward model, MaxBytesUsed picks what a walk of the slot model
// in ascending order picks (ties go to the lowest slot), and a Freeze taken
// at any point stays pinned at its freeze-point values no matter what
// decay/reset/use traffic crosses the freeze boundary afterwards.
func FuzzEdgeTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 0})
	// Insert more than Cap distinct keys to reach the overflow path.
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0,
		0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 2, 0, 0, 1, 3, 0,
		0, 2, 0, 0, 0, 2, 1, 0, 0, 2, 2, 0, 0, 2, 3, 0,
	})
	// Exercise every op kind at least once.
	f.Add([]byte{
		0, 1, 1, 0, // GetOrInsert
		2, 1, 1, 0, // Get (hit)
		2, 3, 3, 0, // Get (miss)
		3, 1, 1, 5, // RecordUse stale=5
		3, 1, 1, 1, // RecordUse stale=1 (below threshold: no-op)
		4, 2, 2, 9, // AddBytesUsed
		5, 1, 1, 0, // RecordPrune
		6, 0, 0, 0, // DecayMaxStaleUse
		7, 0, 0, 0, // ResetBytesUsed
	})
	// Decay and reset crossing a freeze boundary: the frozen cut must keep
	// the pre-decay values while the live table moves on.
	f.Add([]byte{
		3, 0, 1, 5, // RecordUse(1,2) stale=5
		3, 1, 2, 4, // RecordUse(2,3) stale=4
		8, 0, 0, 0, // Freeze
		6, 0, 0, 0, // DecayMaxStaleUse (live 5→4, frozen stays 5)
		7, 0, 0, 0, // ResetBytesUsed
		3, 0, 1, 7, // RecordUse(1,2) stale=7 (live raised, frozen stays 5)
		8, 0, 0, 0, // Freeze again (captures the post-decay cut)
		6, 0, 0, 0, // DecayMaxStaleUse
	})
	// Equal bytesUsed on several edge types, inserted out of slot order:
	// MaxBytesUsed must take the lowest slot, not the first inserted.
	f.Add([]byte{
		4, 3, 3, 7, 4, 2, 1, 7, 4, 0, 2, 7, 4, 1, 0, 7, 4, 3, 1, 7,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := New(8)
		type model struct {
			msu   uint8
			bytes uint64
		}
		shadow := map[Key]*model{}
		slots := make([]Key, tab.Cap()) // the slot model; the zero Key is free
		slotOf := map[Key]int{}
		wantOverflows := uint64(0)
		var frozen *Frozen
		var shadowFrozen map[Key]uint8
		// insert applies GetOrInsert's model semantics: existing keys hit,
		// new keys take the first free slot on their probe sequence, and a
		// table with no free slot drops the insertion (nil = the update
		// landed on scratch).
		insert := func(k Key) *model {
			if m, ok := shadow[k]; ok {
				return m
			}
			for i, probes := tab.hash(k), 0; probes < len(slots); i, probes = (i+1)%len(slots), probes+1 {
				if slots[i] == (Key{}) {
					slots[i], slotOf[k] = k, i
					m := &model{}
					shadow[k] = m
					return m
				}
			}
			if len(shadow) != tab.Cap() {
				t.Fatalf("slot model overflowed at %d keys, Cap %d", len(shadow), tab.Cap())
			}
			wantOverflows++
			return nil
		}
		for i := 0; i+3 < len(data); i += 4 {
			op := data[i] % 9
			// Class IDs 1..4: 16 key combinations against 8 slots, and no
			// collision with the scratch entry's zero key.
			src := heap.ClassID(data[i+1]&3) + 1
			tgt := heap.ClassID(data[i+2]&3) + 1
			aux := data[i+3]
			k := Key{Src: src, Tgt: tgt}
			switch op {
			case 0, 1:
				e := tab.GetOrInsert(src, tgt)
				if m := insert(k); m != nil {
					if e.Key() != k {
						t.Fatalf("op %d: GetOrInsert(%v).Key() = %v", i, k, e.Key())
					}
				} else if e.Key() == k {
					t.Fatalf("op %d: full table returned a live entry for new key %v", i, k)
				}
			case 2:
				e, ok := tab.Get(src, tgt)
				_, want := shadow[k]
				if ok != want {
					t.Fatalf("op %d: Get(%v) = %t, shadow says %t", i, k, ok, want)
				}
				if ok && e.Key() != k {
					t.Fatalf("op %d: Get(%v).Key() = %v", i, k, e.Key())
				}
			case 3:
				tab.RecordUse(src, tgt, aux)
				if aux >= 2 {
					if m := insert(k); m != nil && aux > m.msu {
						m.msu = aux
					}
				}
			case 4:
				tab.AddBytesUsed(src, tgt, uint64(aux))
				if m := insert(k); m != nil {
					m.bytes += uint64(aux)
				}
			case 5:
				tab.RecordPrune(src, tgt) // lookup-only: never inserts
			case 6:
				tab.DecayMaxStaleUse()
				for _, m := range shadow {
					if m.msu > 0 {
						m.msu--
					}
				}
			case 7:
				tab.ResetBytesUsed()
				for _, m := range shadow {
					m.bytes = 0
				}
			case 8:
				frozen = tab.Freeze()
				shadowFrozen = make(map[Key]uint8, len(shadow))
				for fk, m := range shadow {
					shadowFrozen[fk] = m.msu
				}
				if frozen.Len() != len(shadowFrozen) {
					t.Fatalf("op %d: Frozen.Len = %d, shadow has %d keys", i, frozen.Len(), len(shadowFrozen))
				}
			}
			if tab.Len() != len(shadow) {
				t.Fatalf("op %d: Len = %d, shadow has %d keys", i, tab.Len(), len(shadow))
			}
			if tab.Overflows() != wantOverflows {
				t.Fatalf("op %d: Overflows = %d, want %d", i, tab.Overflows(), wantOverflows)
			}
			// A frozen cut never moves, whatever ops cross the freeze boundary.
			if frozen != nil {
				if got, want := frozen.MaxStaleUseFor(src, tgt), shadowFrozen[k]; got != want {
					t.Fatalf("op %d: frozen maxStaleUse(%v) = %d, freeze-point model %d", i, k, got, want)
				}
			}
		}
		for k, m := range shadow {
			e, ok := tab.Get(k.Src, k.Tgt)
			if !ok {
				t.Fatalf("inserted key %v not found at end", k)
			}
			if e.MaxStaleUse() != m.msu {
				t.Fatalf("key %v: maxStaleUse = %d, model %d", k, e.MaxStaleUse(), m.msu)
			}
			if e.BytesUsed() != m.bytes {
				t.Fatalf("key %v: bytesUsed = %d, model %d", k, e.BytesUsed(), m.bytes)
			}
			if int(e.slot) != slotOf[k] {
				t.Fatalf("key %v: in slot %d, slot model %d", k, e.slot, slotOf[k])
			}
		}
		if frozen != nil {
			for s := heap.ClassID(1); s <= 4; s++ {
				for g := heap.ClassID(1); g <= 4; g++ {
					if got, want := frozen.MaxStaleUseFor(s, g), shadowFrozen[Key{s, g}]; got != want {
						t.Fatalf("frozen maxStaleUse(%d,%d) = %d at end, freeze-point model %d", s, g, got, want)
					}
				}
			}
		}
		var wantMax uint64
		var wantKey Key
		for _, k := range slots { // ascending slots, strictly greater wins
			if m := shadow[k]; m != nil && m.bytes > wantMax {
				wantMax, wantKey = m.bytes, k
			}
		}
		e, ok := tab.MaxBytesUsed()
		if ok != (wantMax > 0) {
			t.Fatalf("MaxBytesUsed ok = %t, model max %d", ok, wantMax)
		}
		if ok && (e.BytesUsed() != wantMax || e.Key() != wantKey) {
			t.Fatalf("MaxBytesUsed = %v/%d, slot model %v/%d", e.Key(), e.BytesUsed(), wantKey, wantMax)
		}
	})
}
