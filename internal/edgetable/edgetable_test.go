package edgetable

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/heap"
)

func TestNewSizeRounding(t *testing.T) {
	if got := New(0).Cap(); got != DefaultSlots {
		t.Fatalf("default cap = %d", got)
	}
	if got := New(100).Cap(); got != 128 {
		t.Fatalf("cap rounded to %d, want 128", got)
	}
}

func TestGetOrInsert(t *testing.T) {
	tbl := New(64)
	e1 := tbl.GetOrInsert(1, 2)
	e2 := tbl.GetOrInsert(1, 2)
	if e1 != e2 {
		t.Fatal("GetOrInsert must return the same entry for the same key")
	}
	e3 := tbl.GetOrInsert(2, 1)
	if e3 == e1 {
		t.Fatal("(1,2) and (2,1) are distinct edge types")
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if _, ok := tbl.Get(1, 2); !ok {
		t.Fatal("Get missed an inserted entry")
	}
	if _, ok := tbl.Get(9, 9); ok {
		t.Fatal("Get found a missing entry")
	}
}

func TestRecordUseMaxSemantics(t *testing.T) {
	tbl := New(64)
	// Uses below staleness 2 are not recorded (§4.1: "a value of 1 is not
	// very stale").
	tbl.RecordUse(1, 2, 1)
	if tbl.Len() != 0 {
		t.Fatal("stale-1 use must not create an entry")
	}
	tbl.RecordUse(1, 2, 3)
	if got := tbl.MaxStaleUseFor(1, 2); got != 3 {
		t.Fatalf("maxStaleUse = %d", got)
	}
	tbl.RecordUse(1, 2, 2) // lower: no change
	if got := tbl.MaxStaleUseFor(1, 2); got != 3 {
		t.Fatalf("maxStaleUse regressed to %d", got)
	}
	tbl.RecordUse(1, 2, 5)
	if got := tbl.MaxStaleUseFor(1, 2); got != 5 {
		t.Fatalf("maxStaleUse = %d, want 5", got)
	}
	// Unknown edge types default to 0 — the conservative value that makes
	// never-reused types prunable at staleness >= 2.
	if got := tbl.MaxStaleUseFor(7, 7); got != 0 {
		t.Fatalf("unknown edge maxStaleUse = %d", got)
	}
}

func TestBytesUsedSelectReset(t *testing.T) {
	tbl := New(64)
	tbl.AddBytesUsed(1, 2, 100)
	tbl.AddBytesUsed(1, 2, 20)
	tbl.AddBytesUsed(3, 4, 90)
	best, ok := tbl.MaxBytesUsed()
	if !ok {
		t.Fatal("MaxBytesUsed found nothing")
	}
	if best.Key() != (Key{1, 2}) || best.BytesUsed() != 120 {
		t.Fatalf("best = %v/%d", best.Key(), best.BytesUsed())
	}
	tbl.ResetBytesUsed()
	tbl.ForEach(func(e *Entry) {
		if e.BytesUsed() != 0 {
			t.Fatalf("entry %v not reset", e.Key())
		}
	})
	// maxStaleUse survives the reset: it is an all-time maximum (§4.1).
	tbl.RecordUse(1, 2, 4)
	tbl.ResetBytesUsed()
	if tbl.MaxStaleUseFor(1, 2) != 4 {
		t.Fatal("ResetBytesUsed must not clear maxStaleUse")
	}
}

func TestRecordPrune(t *testing.T) {
	tbl := New(64)
	tbl.RecordPrune(1, 2) // no entry: silently ignored
	e := tbl.GetOrInsert(1, 2)
	tbl.RecordPrune(1, 2)
	tbl.RecordPrune(1, 2)
	if e.TimesPruned() != 2 {
		t.Fatalf("TimesPruned = %d", e.TimesPruned())
	}
}

func TestSnapshotsSorted(t *testing.T) {
	reg := heap.NewRegistry()
	a := reg.Define("A", 0, 0)
	b := reg.Define("B", 0, 0)
	c := reg.Define("C", 0, 0)
	tbl := New(64)
	tbl.AddBytesUsed(a, b, 10)
	tbl.AddBytesUsed(b, c, 200)
	tbl.AddBytesUsed(a, c, 10)
	snaps := tbl.Snapshots(reg)
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots", len(snaps))
	}
	if snaps[0].Src != "B" || snaps[0].Tgt != "C" {
		t.Fatalf("largest entry first, got %+v", snaps[0])
	}
	// Ties break by name for stable output.
	if snaps[1].Src != "A" || snaps[1].Tgt != "B" {
		t.Fatalf("tie order wrong: %+v", snaps[1])
	}
}

func TestTableFullDropsInsertions(t *testing.T) {
	tbl := New(4) // rounds to 4 slots
	for i := 0; i < 10; i++ {
		if e := tbl.GetOrInsert(heap.ClassID(i+1), heap.ClassID(i+1)); e == nil {
			t.Fatal("GetOrInsert returned nil")
		}
	}
	if got := tbl.Overflows(); got != 6 {
		t.Fatalf("Overflows = %d, want 6", got)
	}
	if tbl.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (full)", tbl.Len())
	}
	// Updates aimed at dropped entries are absorbed, not recorded: the
	// overflowed edge type still reads as never-observed.
	tbl.RecordUse(heap.ClassID(9), heap.ClassID(9), 5)
	if got := tbl.MaxStaleUseFor(heap.ClassID(9), heap.ClassID(9)); got != 0 {
		t.Fatalf("dropped edge type has MaxStaleUse %d, want 0", got)
	}
	// Existing entries keep working at capacity.
	tbl.RecordUse(heap.ClassID(1), heap.ClassID(1), 4)
	if got := tbl.MaxStaleUseFor(heap.ClassID(1), heap.ClassID(1)); got != 4 {
		t.Fatalf("resident edge type has MaxStaleUse %d, want 4", got)
	}
}

func TestInjectedEdgeTableOverflow(t *testing.T) {
	inj := faultinject.New(5)
	inj.Arm(faultinject.EdgeTableOverflow, 1.0)
	inj.Limit(faultinject.EdgeTableOverflow, 1)
	tbl := New(64)
	tbl.SetFaultInjector(inj)
	tbl.RecordUse(1, 2, 3) // insertion injected away
	if tbl.Overflows() != 1 || tbl.Len() != 0 {
		t.Fatalf("overflows=%d len=%d, want 1/0", tbl.Overflows(), tbl.Len())
	}
	tbl.RecordUse(1, 2, 3) // injector exhausted: insertion proceeds
	if tbl.Len() != 1 || tbl.MaxStaleUseFor(1, 2) != 3 {
		t.Fatalf("post-fault insert failed: len=%d stale=%d", tbl.Len(), tbl.MaxStaleUseFor(1, 2))
	}
}

func TestConcurrentRecordUse(t *testing.T) {
	tbl := New(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tbl.RecordUse(heap.ClassID(i%17+1), heap.ClassID(i%13+1), uint8(2+(i+w)%5))
				tbl.AddBytesUsed(heap.ClassID(i%17+1), heap.ClassID(i%13+1), 8)
			}
		}(w)
	}
	wg.Wait()
	if tbl.Len() == 0 || tbl.Len() > 17*13 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	// Every recorded maxStaleUse must be in the range that was written.
	tbl.ForEach(func(e *Entry) {
		if m := e.MaxStaleUse(); m < 2 || m > 6 {
			t.Fatalf("maxStaleUse out of range: %d", m)
		}
	})
}

// TestMaxStaleUseQuick: maxStaleUse equals the maximum of all recorded uses
// at staleness >= 2, for arbitrary use sequences.
func TestMaxStaleUseQuick(t *testing.T) {
	prop := func(uses []uint8) bool {
		tbl := New(16)
		want := uint8(0)
		for _, u := range uses {
			u %= 8
			tbl.RecordUse(1, 2, u)
			if u >= 2 && u > want {
				want = u
			}
		}
		return tbl.MaxStaleUseFor(1, 2) == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBytesUsedSumQuick: bytesUsed accumulates exactly.
func TestBytesUsedSumQuick(t *testing.T) {
	prop := func(adds []uint16) bool {
		tbl := New(16)
		var want uint64
		for _, a := range adds {
			tbl.AddBytesUsed(3, 4, uint64(a))
			want += uint64(a)
		}
		e, ok := tbl.Get(3, 4)
		if len(adds) == 0 {
			return !ok
		}
		return ok && e.BytesUsed() == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFreezeMatchesSTWCut is the snapshot-equivalence property the
// concurrent SELECT/PRUNE path depends on: for an arbitrary use history,
// the frozen snapshot answers MaxStaleUseFor exactly as an STW cycle
// reading the live table at the freeze point would, over the whole key
// universe (including keys never observed, which both report 0).
func TestFreezeMatchesSTWCut(t *testing.T) {
	prop := func(uses []uint32) bool {
		tbl := New(16)
		for _, u := range uses {
			src := heap.ClassID(u&3) + 1
			tgt := heap.ClassID((u>>2)&3) + 1
			tbl.RecordUse(src, tgt, uint8((u>>4)%8))
		}
		f := tbl.Freeze()
		if f.Len() != tbl.Len() {
			return false
		}
		for s := heap.ClassID(1); s <= 4; s++ {
			for g := heap.ClassID(1); g <= 4; g++ {
				if f.MaxStaleUseFor(s, g) != tbl.MaxStaleUseFor(s, g) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFreezeImmutableUnderTraffic: the frozen cut keeps its freeze-point
// values while use/decay/reset traffic moves the live table — the
// property that lets a concurrent cycle's candidate and prune predicates
// see one consistent staleness cut while mutator read barriers keep
// raising live maxStaleUse.
func TestFreezeImmutableUnderTraffic(t *testing.T) {
	tbl := New(64)
	tbl.RecordUse(1, 2, 5)
	tbl.RecordUse(3, 4, 2)
	f := tbl.Freeze()
	tbl.RecordUse(1, 2, 7) // live raised past the cut
	tbl.DecayMaxStaleUse() // live lowered below the cut
	tbl.ResetBytesUsed()   // unrelated state clears must not leak in
	tbl.RecordUse(2, 2, 6) // new edge type after the cut
	if got := f.MaxStaleUseFor(1, 2); got != 5 {
		t.Fatalf("frozen (1,2) = %d after live traffic, want 5", got)
	}
	if got := f.MaxStaleUseFor(3, 4); got != 2 {
		t.Fatalf("frozen (3,4) = %d after live decay, want 2", got)
	}
	if got := f.MaxStaleUseFor(2, 2); got != 0 {
		t.Fatalf("frozen sees post-freeze edge type: %d, want 0", got)
	}
	if f.Len() != 2 {
		t.Fatalf("Frozen.Len = %d, want 2", f.Len())
	}
	if got := tbl.MaxStaleUseFor(1, 2); got != 6 {
		t.Fatalf("live (1,2) = %d, want 6 (raised to 7 then decayed)", got)
	}
}

// TestFreezeOverflowToScratch: updates that overflowed to the inert
// scratch entry are invisible to lookup, so the frozen cut must report 0
// for them — identical to what an STW cycle reading the live table sees.
func TestFreezeOverflowToScratch(t *testing.T) {
	tbl := New(4)
	for i := 0; i < 4; i++ {
		tbl.RecordUse(heap.ClassID(i+1), heap.ClassID(i+1), uint8(2+i))
	}
	// Table full: this use lands on scratch.
	tbl.RecordUse(9, 9, 7)
	if tbl.Overflows() == 0 {
		t.Fatal("overflow path not reached")
	}
	f := tbl.Freeze()
	if f.Len() != tbl.Len() {
		t.Fatalf("Frozen.Len = %d, live Len = %d", f.Len(), tbl.Len())
	}
	if got, live := f.MaxStaleUseFor(9, 9), tbl.MaxStaleUseFor(9, 9); got != 0 || live != 0 {
		t.Fatalf("overflowed edge type: frozen=%d live=%d, want 0/0", got, live)
	}
	for i := 0; i < 4; i++ {
		c := heap.ClassID(i + 1)
		if f.MaxStaleUseFor(c, c) != tbl.MaxStaleUseFor(c, c) {
			t.Fatalf("resident edge (%d,%d): frozen %d != live %d",
				c, c, f.MaxStaleUseFor(c, c), tbl.MaxStaleUseFor(c, c))
		}
	}
}

func TestDecayMaxStaleUse(t *testing.T) {
	tbl := New(64)
	tbl.RecordUse(1, 2, 5)
	tbl.RecordUse(3, 4, 2)
	tbl.DecayMaxStaleUse()
	if got := tbl.MaxStaleUseFor(1, 2); got != 4 {
		t.Fatalf("decayed maxStaleUse = %d, want 4", got)
	}
	if got := tbl.MaxStaleUseFor(3, 4); got != 1 {
		t.Fatalf("decayed maxStaleUse = %d, want 1", got)
	}
	// Decay floors at zero.
	for i := 0; i < 10; i++ {
		tbl.DecayMaxStaleUse()
	}
	if got := tbl.MaxStaleUseFor(3, 4); got != 0 {
		t.Fatalf("maxStaleUse after repeated decay = %d", got)
	}
}

// TestMaxBytesUsedTieTakesLowestSlot: entries live in insertion order, but
// a bytesUsed tie still goes to the lowest hash slot, as a walk of the
// paper's slot array would pick it.
func TestMaxBytesUsedTieTakesLowestSlot(t *testing.T) {
	tbl := New(64)
	var lowest *Entry
	for i := 10; i > 0; i-- { // insert in an order unrelated to the slots
		e := tbl.GetOrInsert(heap.ClassID(i), heap.ClassID(i+1))
		tbl.AddBytesUsed(heap.ClassID(i), heap.ClassID(i+1), 64)
		if lowest == nil || e.slot < lowest.slot {
			lowest = e
		}
	}
	var first *Entry
	tbl.ForEach(func(e *Entry) {
		if first == nil {
			first = e
		}
	})
	if first == lowest {
		t.Fatal("the first inserted entry has the lowest slot; the test cannot tell the orders apart")
	}
	if best, ok := tbl.MaxBytesUsed(); !ok || best != lowest {
		t.Fatalf("MaxBytesUsed = %v (slot %d), want %v (slot %d)", best.Key(), best.slot, lowest.Key(), lowest.slot)
	}
}

// TestOverflowAtCap: a table takes exactly Cap() edge types, and the next
// new one overflows.
func TestOverflowAtCap(t *testing.T) {
	tbl := New(512)
	for i := 0; i < tbl.Cap(); i++ {
		tbl.GetOrInsert(heap.ClassID(i+1), 1)
		if tbl.Overflows() != 0 {
			t.Fatalf("overflow at %d entries, Cap %d", i+1, tbl.Cap())
		}
	}
	if tbl.Len() != tbl.Cap() {
		t.Fatalf("Len = %d, want Cap %d", tbl.Len(), tbl.Cap())
	}
	tbl.GetOrInsert(heap.ClassID(tbl.Cap()+1), 1)
	if tbl.Overflows() != 1 || tbl.Len() != tbl.Cap() {
		t.Fatalf("after Cap+1 keys: overflows=%d len=%d", tbl.Overflows(), tbl.Len())
	}
	for i := 0; i < tbl.Cap(); i++ {
		if _, ok := tbl.Get(heap.ClassID(i+1), 1); !ok {
			t.Fatalf("resident edge type %d lost", i+1)
		}
	}
}

// TestEntriesDoNotMoveAcrossChunks: an *Entry taken before the insert that
// opens a new storage chunk still is the entry Get returns, with its
// updates.
func TestEntriesDoNotMoveAcrossChunks(t *testing.T) {
	tbl := New(1024)
	held := make([]*Entry, chunkLen)
	for i := range held {
		held[i] = tbl.GetOrInsert(heap.ClassID(i+1), 2)
		tbl.RecordUse(heap.ClassID(i+1), 2, uint8(2+i%5))
	}
	for i := chunkLen; i < 3*chunkLen; i++ { // opens chunks 1 and 2
		tbl.GetOrInsert(heap.ClassID(i+1), 2)
	}
	for i, e := range held {
		got, ok := tbl.Get(heap.ClassID(i+1), 2)
		if !ok || got != e {
			t.Fatalf("entry %d moved: Get = %p, held %p", i, got, e)
		}
		if got.MaxStaleUse() != uint8(2+i%5) {
			t.Fatalf("entry %d: maxStaleUse %d, want %d", i, got.MaxStaleUse(), 2+i%5)
		}
	}
}

// TestForEachDuringInserts: walks run beside inserts that open new chunks;
// every visited entry is fully written (run under -race).
func TestForEachDuringInserts(t *testing.T) {
	tbl := New(2048)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 900; i++ {
				tbl.RecordUse(heap.ClassID(i+1), heap.ClassID(w+1), 3)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for walking := true; walking; {
		select {
		case <-done:
			walking = false
		default:
		}
		seen := 0
		tbl.ForEach(func(e *Entry) {
			if k := e.Key(); k.Src == 0 || k.Tgt == 0 || k.Tgt > 2 {
				t.Errorf("ForEach saw a half-written entry %v", k)
			}
			seen++
		})
		if seen > tbl.Len() {
			t.Fatalf("ForEach visited %d entries, Len %d", seen, tbl.Len())
		}
		tbl.MaxBytesUsed()
		tbl.Freeze()
	}
	if tbl.Len() != 1800 {
		t.Fatalf("Len = %d, want 1800", tbl.Len())
	}
}

// TestNewFootprint: a default table allocates its 64 KiB slot index and
// no entry storage; the slot array of entries it replaced was 640 KiB.
func TestNewFootprint(t *testing.T) {
	const limit = 128 << 10
	least := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tbl := New(0)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(tbl)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > limit {
		t.Fatalf("New(0) allocated %d bytes, limit %d", least, limit)
	}
}
