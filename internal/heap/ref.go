// Package heap implements the simulated managed heap that the leak-pruning
// runtime is built on: tagged references, object headers, the stale clock
// behind their stale counters, a class registry, and byte-accounted
// allocation against a fixed maximum heap size.
//
// The heap stores objects in a chunked table indexed by ObjectID so that
// *Object pointers remain stable while the table grows. All reference slots
// are 64-bit words manipulated with sync/atomic, because the read barrier
// (package vm) clears tag bits concurrently from multiple mutator threads.
package heap

import "fmt"

// ObjectID names an object in the heap's object table. ID 0 is reserved so
// that the null reference is the zero Ref.
type ObjectID uint32

// ClassID names a class in a Registry. ID 0 is reserved (no class).
type ClassID uint32

// Ref is a tagged reference word: the object ID shifted left by two bits,
// with the two low bits available as tags. It mirrors the paper's use of the
// alignment bits of object pointers:
//
//   - bit 0 (TagStale) is set by the collector on every object-to-object
//     reference it traces; the read barrier's cold path fires when it is set
//     and clears it, so the barrier body runs at most once per reference per
//     full-heap collection (§4.1).
//   - bit 1 (TagPoison) marks a pruned ("poisoned") reference; an access
//     traps with an InternalError whose cause is the deferred
//     OutOfMemoryError (§4.3–4.4). Poisoning also sets bit 0 so that the
//     single fast-path test covers both conditions, exactly as in the paper.
//
// The null reference is 0 and carries no tags.
type Ref uint64

const (
	// TagStale is the collector-set bit tested by the read barrier fast path.
	TagStale Ref = 1 << 0
	// TagPoison marks a pruned reference.
	TagPoison Ref = 1 << 1

	tagMask  Ref = TagStale | TagPoison
	refShift     = 2
)

// Null is the null reference.
const Null Ref = 0

// MakeRef builds an untagged reference to the given object.
func MakeRef(id ObjectID) Ref { return Ref(id) << refShift }

// ID extracts the object ID, ignoring tag bits.
func (r Ref) ID() ObjectID { return ObjectID(r >> refShift) }

// IsNull reports whether r is the null reference (tags ignored: a tagged
// null cannot be constructed by the runtime).
func (r Ref) IsNull() bool { return r>>refShift == 0 }

// Tags returns only the tag bits of r.
func (r Ref) Tags() Ref { return r & tagMask }

// Untagged returns r with all tag bits cleared.
func (r Ref) Untagged() Ref { return r &^ tagMask }

// WithStale returns r with the stale-check tag set.
func (r Ref) WithStale() Ref { return r | TagStale }

// WithPoison returns r with both the poison and stale-check tags set, the
// bit pattern the PRUNE state writes (§4.3): the stale bit guarantees the
// barrier's cold path runs and finds the poison bit.
func (r Ref) WithPoison() Ref { return r | TagPoison | TagStale }

// IsStaleTagged reports whether the stale-check tag is set.
func (r Ref) IsStaleTagged() bool { return r&TagStale != 0 }

// IsPoisoned reports whether the poison tag is set.
func (r Ref) IsPoisoned() bool { return r&TagPoison != 0 }

// String renders the reference for diagnostics, e.g. "ref#12", "ref#12*"
// (poisoned, as in the paper's Figure 4), or "null".
func (r Ref) String() string {
	if r.IsNull() {
		return "null"
	}
	suffix := ""
	if r.IsPoisoned() {
		suffix = "*"
	} else if r.IsStaleTagged() {
		suffix = "'"
	}
	return fmt.Sprintf("ref#%d%s", r.ID(), suffix)
}
