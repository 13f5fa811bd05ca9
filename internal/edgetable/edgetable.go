// Package edgetable implements the paper's edge table (§4.1–4.2): a
// fixed-size, closed-hashing table keyed by (source class, target class)
// that summarizes an equivalence relation over heap references. Each entry
// records
//
//   - maxStaleUse: the all-time maximum stale-counter value observed when
//     the program used (read) a reference of this edge type — edge types
//     that are stale for a long time but then used again get a high value
//     and are protected from pruning; and
//   - bytesUsed: the bytes reachable from stale roots of this edge type,
//     computed by the SELECT state's stale transitive closure and reset
//     after each selection.
//
// Entries are never deleted (§4.5). Following the paper's prototype, entry
// field updates use atomics rather than per-entry locks: selection is not
// sensitive to exact values, but we still avoid torn or lost updates.
package edgetable

import (
	"sort"
	"sync"
	"sync/atomic"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/heap"
)

// DefaultSlots is the paper's table size: 16K slots of four words (§6.2).
const DefaultSlots = 16 * 1024

// Key identifies an edge type: the classes of a reference's source and
// target objects.
type Key struct {
	Src, Tgt heap.ClassID
}

// chunkLen is how many entries one storage chunk holds. Chunks are
// allocated as the table fills and never move, so an *Entry stays valid.
const chunkLen = 256

// Entry is one edge-type record. Fields are updated atomically; read them
// through the accessor methods.
type Entry struct {
	key          Key
	slot         uint32 // the hash slot this entry occupies (set under t.mu)
	maxStaleUse  uint32
	bytesUsed    uint64
	timesPruned  uint64 // diagnostic: how many refs of this type were poisoned
	timesUpdated uint64 // diagnostic: barrier maxStaleUse updates
}

// Key returns the entry's edge type.
func (e *Entry) Key() Key { return e.key }

// MaxStaleUse returns the recorded maximum staleness-at-use.
func (e *Entry) MaxStaleUse() uint8 { return uint8(atomic.LoadUint32(&e.maxStaleUse)) }

// BytesUsed returns the bytes attributed by the most recent stale closure.
func (e *Entry) BytesUsed() uint64 { return atomic.LoadUint64(&e.bytesUsed) }

// TimesPruned returns how many references of this type have been poisoned.
func (e *Entry) TimesPruned() uint64 { return atomic.LoadUint64(&e.timesPruned) }

// Table is the fixed-size closed-hashing edge table. The hash slots hold
// only an index: 0 for a free slot, else 1 + the entry's position in
// insertion order. The entries live in chunkLen-entry chunks allocated as
// they fill, so a table costs 4 bytes per slot (64 KiB at DefaultSlots)
// plus 40 bytes per edge type seen, and a whole-table walk visits Len()
// entries rather than Cap() slots.
type Table struct {
	mu     sync.Mutex // serializes inserts only (rare; §4.5)
	index  []uint32   // per slot: 0 = free, else 1 + entry position (atomic)
	chunks [][]Entry  // entry storage; chunk c holds positions c*chunkLen...
	count  atomic.Uint64

	// overflows counts insertions dropped because the table was full (or an
	// injected overflow); the affected updates degrade to no-ops instead of
	// crashing the collection that observed the new edge type.
	overflows atomic.Uint64
	// scratch absorbs updates aimed at entries that could not be inserted.
	// It is never reachable through lookup, so its contents are inert.
	scratch Entry

	inj *faultinject.Injector
}

// New creates a table with the given number of slots (rounded up to a power
// of two; DefaultSlots if n <= 0).
func New(n int) *Table {
	if n <= 0 {
		n = DefaultSlots
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &Table{
		index:  make([]uint32, size),
		chunks: make([][]Entry, (size+chunkLen-1)/chunkLen),
	}
}

// Len returns the number of occupied entries — the paper's "edge types"
// column in Table 2 (the table never shrinks).
func (t *Table) Len() int { return int(t.count.Load()) }

// Overflows returns how many edge-type insertions were dropped because the
// table was full.
func (t *Table) Overflows() uint64 { return t.overflows.Load() }

// SetFaultInjector arms the EdgeTableOverflow injection point: an injected
// fire makes the next insertion behave as if the table were full, driving
// the dropped-update degradation path without filling 16K slots.
func (t *Table) SetFaultInjector(inj *faultinject.Injector) { t.inj = inj }

// Cap returns the slot count.
func (t *Table) Cap() int { return len(t.index) }

// at returns the entry at position pos, which an index word or count has
// published (the atomic load orders the reads of the entry after its write).
func (t *Table) at(pos uint32) *Entry {
	return &t.chunks[pos/chunkLen][pos%chunkLen]
}

func (t *Table) hash(k Key) int {
	// Fibonacci hashing over the packed pair; the table size is a power of
	// two so we mask.
	h := (uint64(k.Src)<<32 | uint64(k.Tgt)) * 0x9e3779b97f4a7c15
	return int(h>>33) & (len(t.index) - 1)
}

// lookup finds the entry for k, or nil without inserting.
func (t *Table) lookup(k Key) *Entry {
	mask := len(t.index) - 1
	for i, probes := t.hash(k), 0; probes < len(t.index); i, probes = (i+1)&mask, probes+1 {
		x := atomic.LoadUint32(&t.index[i])
		if x == 0 {
			return nil
		}
		if e := t.at(x - 1); e.key == k {
			return e
		}
	}
	return nil
}

// Get returns the entry for k if present.
func (t *Table) Get(src, tgt heap.ClassID) (*Entry, bool) {
	e := t.lookup(Key{src, tgt})
	return e, e != nil
}

// GetOrInsert returns the entry for k, creating it if needed. Insertion
// takes the global table lock; lookups of existing entries are lock-free,
// matching the paper's observation that new edge types are rare. When the
// table is full (the paper treats 16K slots as ample, but a pathological
// class population — or an injected fault — can exhaust it), the insertion
// is dropped: the overflow counter advances and the caller's update lands
// on an inert scratch entry. Losing an edge-type record only makes pruning
// more conservative, so degrading beats aborting the collection.
func (t *Table) GetOrInsert(src, tgt heap.ClassID) *Entry {
	k := Key{src, tgt}
	if e := t.lookup(k); e != nil {
		return e
	}
	if t.inj.Should(faultinject.EdgeTableOverflow) {
		t.overflows.Add(1)
		return &t.scratch
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	mask := len(t.index) - 1
	for i, probes := t.hash(k), 0; probes < len(t.index); i, probes = (i+1)&mask, probes+1 {
		x := t.index[i] // inserts are serialized: a plain read sees every store
		if x == 0 {
			pos := uint32(t.count.Load())
			c := pos / chunkLen
			if t.chunks[c] == nil {
				t.chunks[c] = make([]Entry, min(chunkLen, len(t.index)))
			}
			e := t.at(pos)
			e.key, e.slot = k, uint32(i)
			atomic.StoreUint32(&t.index[i], pos+1) // publish after the entry write
			t.count.Add(1)
			return e
		}
		if e := t.at(x - 1); e.key == k {
			return e
		}
	}
	t.overflows.Add(1)
	return &t.scratch
}

// MaxStaleUseFor returns the recorded maxStaleUse for the edge type, or 0
// when the edge type has never been observed — the conservative default
// that makes never-reused reference types prunable at staleness ≥ 2.
func (t *Table) MaxStaleUseFor(src, tgt heap.ClassID) uint8 {
	if e := t.lookup(Key{src, tgt}); e != nil {
		return e.MaxStaleUse()
	}
	return 0
}

// RecordUse is the read barrier's cold-path edge update (§4.1): when the
// program uses a reference whose target has stale counter ≥ 2, raise the
// edge type's maxStaleUse to that value.
func (t *Table) RecordUse(src, tgt heap.ClassID, stale uint8) {
	if stale < 2 {
		return
	}
	e := t.GetOrInsert(src, tgt)
	atomic.AddUint64(&e.timesUpdated, 1)
	for {
		cur := atomic.LoadUint32(&e.maxStaleUse)
		if uint32(stale) <= cur {
			return
		}
		if atomic.CompareAndSwapUint32(&e.maxStaleUse, cur, uint32(stale)) {
			return
		}
	}
}

// AddBytesUsed attributes bytes reachable from a stale root of this edge
// type (the SELECT state's stale closure, §4.2).
func (t *Table) AddBytesUsed(src, tgt heap.ClassID, bytes uint64) {
	e := t.GetOrInsert(src, tgt)
	atomic.AddUint64(&e.bytesUsed, bytes)
}

// RecordPrune counts a poisoned reference of this edge type (diagnostics
// for the paper's optional pruning report, §3.2).
func (t *Table) RecordPrune(src, tgt heap.ClassID) {
	if e := t.lookup(Key{src, tgt}); e != nil {
		atomic.AddUint64(&e.timesPruned, 1)
	}
}

// MaxBytesUsed returns the occupied entry with the greatest bytesUsed, if
// any entry has nonzero bytesUsed — the SELECT state's choice (§4.2). Ties
// break toward the lower slot index for determinism.
func (t *Table) MaxBytesUsed() (*Entry, bool) {
	var best *Entry
	var bestBytes uint64
	t.ForEach(func(e *Entry) {
		if b := e.BytesUsed(); b > bestBytes || b == bestBytes && best != nil && e.slot < best.slot {
			best, bestBytes = e, b
		}
	})
	return best, best != nil
}

// DecayMaxStaleUse lowers every entry's maxStaleUse by one (floored at
// zero). The paper suggests periodic decay as a policy extension for
// phased programs like JbbMod, whose reference types are used rarely enough
// to accrue a high maxStaleUse that then protects dead data forever (§6).
func (t *Table) DecayMaxStaleUse() {
	t.ForEach(func(e *Entry) {
		for {
			cur := atomic.LoadUint32(&e.maxStaleUse)
			if cur == 0 {
				break
			}
			if atomic.CompareAndSwapUint32(&e.maxStaleUse, cur, cur-1) {
				break
			}
		}
	})
}

// ResetBytesUsed zeroes every entry's bytesUsed, as the SELECT state does
// after choosing an edge type (§4.2).
func (t *Table) ResetBytesUsed() {
	t.ForEach(func(e *Entry) { atomic.StoreUint64(&e.bytesUsed, 0) })
}

// ForEach calls fn on every occupied entry, in insertion order. Entries
// inserted while it runs may or may not be visited.
func (t *Table) ForEach(fn func(*Entry)) {
	n := uint32(t.count.Load())
	for pos := uint32(0); pos < n; pos++ {
		fn(t.at(pos))
	}
}

// Frozen is an immutable staleness snapshot of the table: every occupied
// entry's maxStaleUse as of the freeze point. A concurrent SELECT/PRUNE
// cycle freezes the table inside its first pause so the candidate
// predicate and the prune predicate both evaluate one consistent cut of
// the edge table, even while mutator read barriers keep raising live
// maxStaleUse values underneath the concurrent closure. Edge types
// absent at the freeze (including updates that overflowed to the inert
// scratch entry, which lookup never surfaces) report 0, exactly as the
// live table's MaxStaleUseFor would have at that instant.
type Frozen struct {
	msu map[Key]uint8
}

// Freeze captures the current maxStaleUse of every occupied entry.
// Callers provide the "one consistent cut" guarantee by freezing inside
// a stop-the-world pause; Freeze itself only promises a coherent
// per-entry read (entries are atomics) and an immutable result.
func (t *Table) Freeze() *Frozen {
	f := &Frozen{msu: make(map[Key]uint8, t.Len())}
	t.ForEach(func(e *Entry) {
		f.msu[e.key] = e.MaxStaleUse()
	})
	return f
}

// MaxStaleUseFor returns the frozen maxStaleUse for the edge type, or 0
// when the edge type was not in the table at the freeze point — the same
// conservative default as the live table's MaxStaleUseFor.
func (f *Frozen) MaxStaleUseFor(src, tgt heap.ClassID) uint8 {
	return f.msu[Key{src, tgt}]
}

// Len returns the number of edge types captured by the freeze.
func (f *Frozen) Len() int { return len(f.msu) }

// Snapshot describes one entry for reporting, with class names resolved.
type Snapshot struct {
	Src, Tgt    string
	MaxStaleUse uint8
	BytesUsed   uint64
	TimesPruned uint64
}

// Snapshots returns all occupied entries resolved against reg, sorted by
// descending bytesUsed then by name for stable output.
func (t *Table) Snapshots(reg *heap.Registry) []Snapshot {
	var out []Snapshot
	t.ForEach(func(e *Entry) {
		out = append(out, Snapshot{
			Src:         reg.Name(e.key.Src),
			Tgt:         reg.Name(e.key.Tgt),
			MaxStaleUse: e.MaxStaleUse(),
			BytesUsed:   e.BytesUsed(),
			TimesPruned: e.TimesPruned(),
		})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].BytesUsed != out[j].BytesUsed {
			return out[i].BytesUsed > out[j].BytesUsed
		}
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Tgt < out[j].Tgt
	})
	return out
}
