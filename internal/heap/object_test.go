package heap

import (
	"testing"
	"testing/quick"
)

func allocObject(t *testing.T, refs, scalar int) (*Heap, Ref) {
	t.Helper()
	reg := NewRegistry()
	cls := reg.Define("T", refs, scalar)
	h := New(reg, 1<<20)
	r, err := h.Allocate(cls)
	if err != nil {
		t.Fatal(err)
	}
	return h, r
}

func TestStaleCounterBasics(t *testing.T) {
	h, r := allocObject(t, 1, 0)
	obj := h.Get(r)
	if h.Stale(obj) != 0 {
		t.Fatal("fresh object must have stale 0")
	}
	h.SetStale(obj, 3)
	if s := h.Stale(obj); s != 3 {
		t.Fatalf("Stale = %d", s)
	}
	h.SetStale(obj, 250) // saturates
	if s := h.Stale(obj); s != MaxStale {
		t.Fatalf("SetStale must saturate at %d, got %d", MaxStale, s)
	}
	h.ClearStale(obj)
	if h.Stale(obj) != 0 {
		t.Fatal("ClearStale failed")
	}
}

// TestAgeStaleRule checks the paper's logarithmic rule (§4.1): collection i
// increments a counter at value k iff 2^k divides i, so a value k means the
// object was last used about 2^k collections ago.
func TestAgeStaleRule(t *testing.T) {
	h, r := allocObject(t, 0, 0)
	obj := h.Get(r)
	// Simulate collections 1..128 with no intervening use.
	values := map[uint64]uint8{}
	for i := uint64(1); i <= 128; i++ {
		h.AgeStale(i)
		values[i] = h.Stale(obj)
	}
	// After collection 1: 0 -> 1 (2^0 divides everything).
	if values[1] != 1 {
		t.Fatalf("after GC 1: stale = %d, want 1", values[1])
	}
	// 1 -> 2 at the first even collection.
	if values[2] != 2 {
		t.Fatalf("after GC 2: stale = %d, want 2", values[2])
	}
	if values[3] != 2 {
		t.Fatalf("after GC 3: stale = %d, want 2", values[3])
	}
	// 2 -> 3 at the first multiple of 4.
	if values[4] != 3 {
		t.Fatalf("after GC 4: stale = %d, want 3", values[4])
	}
	if values[7] != 3 {
		t.Fatalf("after GC 7: stale = %d, want 3", values[7])
	}
	if values[8] != 4 {
		t.Fatalf("after GC 8: stale = %d, want 4", values[8])
	}
	if values[16] != 5 || values[32] != 6 || values[64] != 7 {
		t.Fatalf("power-of-two progression wrong: %d %d %d", values[16], values[32], values[64])
	}
	// Saturation: stays at MaxStale.
	if values[128] != MaxStale {
		t.Fatalf("after GC 128: stale = %d, want %d", values[128], MaxStale)
	}
}

// TestAgeStaleSchedule pins the full aging schedule for collections 1..64
// against a direct transcription of the §4.1 rule — "collection gcIndex
// increments a counter at value k iff 2^k evenly divides gcIndex" — written
// with the modulo operator. The clock implements the divisibility test as a
// bit mask (the divisor is always a power of two) and applies it to
// thresholds, not counters; this is the oracle that keeps both honest step
// by step, not just at spot-checked points.
func TestAgeStaleSchedule(t *testing.T) {
	h, r := allocObject(t, 0, 0)
	obj := h.Get(r)
	want := uint64(0)
	for i := uint64(1); i <= 64; i++ {
		if want < MaxStale && i%(uint64(1)<<want) == 0 {
			want++
		}
		h.AgeStale(i)
		if got := h.Stale(obj); uint64(got) != want {
			t.Fatalf("after GC %d: Stale = %d, want %d", i, got, want)
		}
	}
	// The schedule above must have saturated: 2^0+2^1+...+2^6 opportunities
	// comfortably exceed what MaxStale requires.
	if s := h.Stale(obj); s != MaxStale {
		t.Fatalf("schedule did not saturate: stale = %d, want %d", s, MaxStale)
	}
}

// TestAgeStaleApproximatesLog checks the counter's meaning across random
// restart points: a counter at value k was always reached after at least
// 2^(k-1) collections without use.
func TestAgeStaleApproximatesLog(t *testing.T) {
	prop := func(start uint16) bool {
		h, r := allocObject(t, 0, 0)
		obj := h.Get(r)
		base := uint64(start) + 1
		gcs := uint64(0)
		for i := base; ; i++ {
			h.AgeStale(i)
			gcs++
			if h.Stale(obj) >= 4 {
				break
			}
			if gcs > 64 {
				return false // must reach 4 within a bounded window
			}
		}
		// Reaching 4 requires at least 2^3 = 8 aging opportunities... the
		// guarantee is a lower bound on elapsed collections.
		return gcs >= 4
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

// eagerAge is the §4.1 rule applied in place to one counter: collection
// gcIndex moves k to k+1 iff 2^k divides gcIndex, saturating at MaxStale.
func eagerAge(k uint8, gcIndex uint64) uint8 {
	if k < MaxStale && gcIndex&(uint64(1)<<k-1) == 0 {
		k++
	}
	return k
}

// FuzzStaleClock drives births, uses (ClearStale), SetStale, aging
// collections and collections that do not age against a model that keeps
// one eager counter per object (eagerAge): after every step every object's
// counter on the clock must equal the model's.
func FuzzStaleClock(f *testing.F) {
	f.Add([]byte{0, 2, 2, 2, 2, 2, 2, 2, 2, 0, 1, 2, 3, 2})
	f.Add([]byte{0, 0, 0, 30, 2, 6, 3, 2, 7, 10, 2, 2, 3, 3, 2})
	// Long runs with few uses, so counters reach MaxStale and the high
	// thresholds move.
	rnd := uint64(0x9e3779b97f4a7c15)
	for _, n := range []int{600, 2000} {
		ops := make([]byte, n)
		for i := range ops {
			rnd ^= rnd << 13
			rnd ^= rnd >> 7
			rnd ^= rnd << 17
			ops[i] = byte(rnd)
			if ops[i]%8 < 3 && rnd>>40%4 != 0 {
				ops[i] = ops[i]&^7 | 2 // mostly aging collections
			}
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		reg := NewRegistry()
		cls := reg.Define("T", 0, 0)
		h := New(reg, 1<<24)
		var objs []*Object
		var model []uint8
		gcIndex := uint64(0)
		for step, op := range ops {
			arg := int(op >> 3)
			switch op % 8 {
			case 0, 1: // birth
				r, err := h.Allocate(cls)
				if err != nil {
					t.Fatal(err)
				}
				objs, model = append(objs, h.Get(r)), append(model, 0)
			case 2, 3: // aging collection
				gcIndex++
				h.AgeStale(gcIndex)
				for i := range model {
					model[i] = eagerAge(model[i], gcIndex)
				}
			case 4: // a collection that does not age
				gcIndex++
			case 5, 6: // use
				if len(objs) > 0 {
					i := arg % len(objs)
					h.ClearStale(objs[i])
					model[i] = 0
				}
			case 7: // set a counter outright
				if len(objs) > 0 {
					i, v := arg%len(objs), uint8(arg%(MaxStale+1))
					h.SetStale(objs[i], v)
					model[i] = v
				}
			}
			for i, obj := range objs {
				if got := h.Stale(obj); got != model[i] {
					t.Fatalf("step %d (op %d, collection %d): object %d reads %d, the eager rule has %d",
						step, op, gcIndex, i, got, model[i])
				}
			}
		}
	})
}

func TestRefSlotAtomics(t *testing.T) {
	h, r := allocObject(t, 2, 0)
	obj := h.Get(r)
	target := MakeRef(99)
	obj.SetRef(0, target.WithStale())
	if got := obj.Ref(0); got != target.WithStale() {
		t.Fatalf("Ref(0) = %v", got)
	}
	// CAS succeeds only against the current value — the barrier's
	// "[iff a.f == t]" store (§4.1).
	if obj.CompareAndSwapRef(0, target, target.Untagged()) {
		t.Fatal("CAS with wrong old value must fail")
	}
	if !obj.CompareAndSwapRef(0, target.WithStale(), target.Untagged()) {
		t.Fatal("CAS with correct old value must succeed")
	}
	if got := obj.Ref(0); got != target {
		t.Fatalf("after CAS: %v", got)
	}
}
