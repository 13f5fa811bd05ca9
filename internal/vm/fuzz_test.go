package vm

import (
	"errors"
	"testing"

	"leakpruning/internal/heap"
	"leakpruning/internal/vmerrors"
)

// FuzzPoisonRoundTrip checks the tagged-reference word algebra on arbitrary
// 64-bit patterns — untagging is idempotent, tags never disturb the object
// ID, and poisoning always implies the stale bit (the invariant the barrier
// fast path's single `&TagStale` test depends on, §4.3) — and then runs the
// only two tag patterns the collector actually writes through a real VM:
// a stale-tagged slot must survive the barrier cold path untagged, and a
// poisoned slot must trap with the typed InternalError.
func FuzzPoisonRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))        // TagStale alone
	f.Add(uint64(2))        // TagPoison alone (illegal in the heap; fine as a word)
	f.Add(uint64(3))        // both tags on the null ID
	f.Add(uint64(4))        // ref#1 untagged
	f.Add(uint64(7))        // ref#1 with both tags
	f.Add(^uint64(0))       // all bits set
	f.Add(uint64(1) << 63)  // high bit only
	f.Add(uint64(100) << 2) // a plausible mid-range object ID
	f.Fuzz(func(t *testing.T, word uint64) {
		r := heap.Ref(word)
		u := r.Untagged()
		if u.Tags() != 0 {
			t.Fatalf("Untagged(%#x).Tags() = %#x", word, u.Tags())
		}
		if u.Untagged() != u {
			t.Fatalf("Untagged not idempotent on %#x", word)
		}
		if u.ID() != r.ID() {
			t.Fatalf("Untagged changed ID: %d -> %d", r.ID(), u.ID())
		}
		s := u.WithStale()
		if !s.IsStaleTagged() || s.IsPoisoned() {
			t.Fatalf("WithStale(%#x) tags = %#x", uint64(u), uint64(s.Tags()))
		}
		p := u.WithPoison()
		if !p.IsPoisoned() || !p.IsStaleTagged() {
			t.Fatalf("WithPoison(%#x) must set both bits, got tags %#x", uint64(u), uint64(p.Tags()))
		}
		if s.WithPoison() != p {
			t.Fatalf("poisoning a stale ref diverged: %#x != %#x", uint64(s.WithPoison()), uint64(p))
		}
		if s.Untagged() != u || p.Untagged() != u || s.ID() != u.ID() || p.ID() != u.ID() {
			t.Fatalf("tags disturbed the ID bits of %#x", uint64(u))
		}
		// ID() narrows to the 32-bit ObjectID domain while IsNull inspects
		// the whole word, so the null test is equivalence with the untagged
		// null word, not with ID()==0 (a high-bits-only word has ID 0 yet is
		// not null). Canonical references — those MakeRef can produce — do
		// round-trip exactly.
		if r.IsNull() != (u == heap.Null) {
			t.Fatalf("IsNull(%#x) = %t, untagged word %#x", word, r.IsNull(), uint64(u))
		}
		if c := heap.MakeRef(r.ID()); c.ID() != r.ID() || c.IsNull() != (r.ID() == 0) {
			t.Fatalf("MakeRef(%d) round trip broke: ID %d, null %t", r.ID(), c.ID(), c.IsNull())
		}
		_, _, _ = r.String(), s.String(), p.String()

		// Heap round trip. Only legal patterns go into the slot: a poisoned
		// reference always carries the stale bit (WithPoison guarantees it),
		// because poison-without-stale would slip past the fast path's test.
		v := New(Options{HeapLimit: 1 << 20, GCWorkers: 1, EnableBarriers: true})
		node := v.DefineClass("Node", 1, 0)
		poison := word&1 != 0
		stale := uint8(word>>1) & 7
		err := v.RunThread("fuzz", func(th *Thread) {
			a := th.New(node)
			b := th.New(node)
			th.Store(a, 0, b)
			if poison {
				v.heap.Get(a).SetRef(0, b.WithPoison())
			} else {
				v.heap.Get(a).SetRef(0, b.WithStale())
				v.heap.SetStale(v.heap.Get(b), stale)
			}
			got := th.Load(a, 0)
			if poison {
				t.Fatal("Load of a poisoned reference must not return")
			}
			if got != b {
				t.Fatalf("Load through armed barrier = %v, want %v", got, b)
			}
			if v.heap.Get(a).Ref(0) != b {
				t.Fatalf("cold path left slot %v", v.heap.Get(a).Ref(0))
			}
			if v.heap.Stale(v.heap.Get(b)) != 0 {
				t.Fatalf("cold path left stale counter %d", v.heap.Stale(v.heap.Get(b)))
			}
		})
		if poison {
			var ie *vmerrors.InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("poisoned load: err = %v, want InternalError", err)
			}
			if st := v.Stats(); st.PoisonTraps != 1 {
				t.Fatalf("PoisonTraps = %d after one trap", st.PoisonTraps)
			}
		} else if err != nil {
			t.Fatalf("stale load: unexpected error %v", err)
		}
	})
}
