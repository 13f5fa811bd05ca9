// Package trace implements a compact binary allocation-trace format for
// the simulated runtime: every mutator operation (alloc, load, store,
// global and frame traffic), every collector free, and every GC cycle's
// outcome, recorded per thread and replayable deterministically (see
// internal/harness's Replayer).
//
// The format is modelled on event-sourced GC trace schemas (goat-style
// alloc/free/GC-end event streams) but carries enough to *re-execute* the
// mutator, not just account for it: a self-describing header (program
// metadata, options fingerprint, class table, global count, thread table)
// followed by length-prefixed per-stream blocks, flushed at every
// stop-the-world drain, in which events are varint-encoded with per-stream
// delta compression (allocation IDs and load/store sources are zigzag
// deltas against the previous value on the same stream, since the heap
// recycles object IDs LIFO and IDs are therefore not monotonic).
//
// Stream 0 is the collector's stream (frees and GC-cycle records); streams
// 1..N are mutator threads in creation order.
package trace

import (
	"errors"
	"fmt"
)

// magic identifies a leak-pruning trace file, version-tagged separately.
var magic = [8]byte{'L', 'P', 'T', 'R', 'A', 'C', 'E', '1'}

// Version is the current format version.
const Version = 1

// Kind identifies an event type on the wire (one byte).
type Kind uint8

const (
	// kindInvalid guards against zero-filled corruption: 0 is not a kind.
	kindInvalid Kind = iota
	// EvAlloc: a successful allocation with the class's default shape.
	// Payload: class uvarint, zigzag delta of the object ID vs the stream's
	// previous allocation.
	EvAlloc
	// EvAllocShaped: EvAlloc plus explicit refSlots and scalarBytes
	// (allocations using WithRefSlots/WithScalarBytes).
	EvAllocShaped
	// EvAllocFail: an allocation that exhausted memory (the op that threw
	// OutOfMemoryError). Payload: class uvarint.
	EvAllocFail
	// EvAllocFailShaped: EvAllocFail with explicit shape.
	EvAllocFailShaped
	// EvLoad: a reference load. Payload: zigzag delta of the source object
	// ID vs the stream's previous load/store source, slot uvarint.
	EvLoad
	// EvStore: a reference store. Payload: source delta (as EvLoad), slot
	// uvarint, value object ID uvarint (0 = null).
	EvStore
	// EvLoadGlobal: a global read. Payload: global index uvarint.
	EvLoadGlobal
	// EvStoreGlobal: a global write. Payload: global index uvarint, value
	// object ID uvarint (0 = null).
	EvStoreGlobal
	// EvPush: a frame push. Payload: slot count uvarint.
	EvPush
	// EvPop: a frame pop. No payload.
	EvPop
	// EvFrameSet: a frame-slot write. Payload: depth-from-top uvarint, slot
	// uvarint, value object ID uvarint (0 = null).
	EvFrameSet
	// EvIter: an iteration boundary mark. Payload: iteration number
	// uvarint, nanoseconds since the stream's previous mark uvarint (the
	// replayer's pacing clock).
	EvIter
	// EvThreadEnd: the thread exited. No payload.
	EvThreadEnd
	// EvFree: the collector freed an object (stream 0 only). Payload:
	// zigzag delta of the object ID vs the stream's previous free.
	EvFree
	// EvGCCycle: a full-heap collection completed (stream 0 only).
	// Payload: index, mode, state, bytesLive, candidates, pruned, flags
	// (bit 0 = degraded), liveHash, nanoseconds since the previous cycle —
	// all uvarint. The replay verifier compares these against the replayed
	// run's cycles.
	EvGCCycle

	kindMax
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case EvAlloc:
		return "alloc"
	case EvAllocShaped:
		return "alloc-shaped"
	case EvAllocFail:
		return "alloc-fail"
	case EvAllocFailShaped:
		return "alloc-fail-shaped"
	case EvLoad:
		return "load"
	case EvStore:
		return "store"
	case EvLoadGlobal:
		return "load-global"
	case EvStoreGlobal:
		return "store-global"
	case EvPush:
		return "push"
	case EvPop:
		return "pop"
	case EvFrameSet:
		return "frame-set"
	case EvIter:
		return "iter"
	case EvThreadEnd:
		return "thread-end"
	case EvFree:
		return "free"
	case EvGCCycle:
		return "gc-cycle"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Meta is the run configuration stamped into the header: enough to replay
// the trace under the recorded options and to warn when it is replayed
// under different ones.
type Meta struct {
	Program        string
	Policy         string
	MarkMode       string
	BarrierVariant string
	ForceState     string
	HeapLimit      uint64
	Flags          uint64
	// Fingerprint hashes the full effective vm.Options the recording ran
	// under; a replay under different options still works (that is the
	// point of cross-policy replay) but can no longer promise byte-equal
	// GC cycles.
	Fingerprint uint64
}

// Meta.Flags bits. FlagGenerational and FlagLazyBarriers are reserved: no
// recorder writes them and a replay refuses a trace that sets one (it could
// not run the recorded program); the bits stay allocated so later flags do
// not reuse them.
const (
	FlagHashLiveSet uint64 = 1 << iota
	FlagGenerational
	FlagFullHeapOnly
	FlagBarriersOff
	FlagLazyBarriers
)

// ClassDef is one class-table row; row i describes class ID i+1 (the
// registry reserves ID 0).
type ClassDef struct {
	Name        string
	RefSlots    int
	ScalarBytes int
}

// GCInfo is the payload of an EvGCCycle event.
type GCInfo struct {
	Index      uint64
	Mode       uint8
	State      uint8
	BytesLive  uint64
	Candidates int
	Pruned     int
	Degraded   bool
	LiveHash   uint64
}

// Event is one decoded trace event. The iterator reuses a single Event
// value across Next calls; copy it if it must outlive the call.
type Event struct {
	Kind   Kind
	Stream int // 0 = collector stream; 1..N = mutator threads

	Class uint32 // alloc / alloc-fail
	Obj   uint64 // alloc id, load/store source id, free id
	Val   uint64 // store / store-global / frame-set value id (0 = null)
	Slot  int    // load / store / frame-set slot
	Arg   int    // push slot count, frame-set depth, global index, iteration
	DT    uint64 // iter / gc-cycle: nanoseconds since the previous mark

	// RefSlots and ScalarBytes carry a shaped allocation's override
	// (-1 on other events, meaning "class default").
	RefSlots    int
	ScalarBytes int

	GC GCInfo // gc-cycle only
}

// Typed decode errors. Decoding never panics on hostile input: every
// malformed byte sequence maps to one of these.
var (
	// ErrBadMagic: the input does not start with a trace header.
	ErrBadMagic = errors.New("trace: bad magic (not a trace file)")
	// ErrBadVersion: the trace was written by an unknown format version.
	ErrBadVersion = errors.New("trace: unsupported format version")
)

// CorruptError reports structurally invalid trace bytes.
type CorruptError struct {
	Offset int
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("trace: corrupt at offset %d: %s", e.Offset, e.Reason)
}

// TruncatedError reports a trace that ends mid-structure.
type TruncatedError struct {
	Offset int
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("trace: truncated at offset %d", e.Offset)
}

// Decode bounds, chosen far above anything the recorder emits so hostile
// lengths fail fast without allocating.
const (
	maxStringLen = 1 << 16
	maxTableLen  = 1 << 20
	maxIntValue  = 1 << 31
)

// appendUvarint appends v in LEB128.
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// appendZigzag appends v zigzag-mapped to a uvarint.
func appendZigzag(b []byte, v int64) []byte {
	return appendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// readUvarint decodes a LEB128 uvarint from b at off, returning the value
// and the offset past it.
func readUvarint(b []byte, off int) (uint64, int, error) {
	var v uint64
	for i := 0; i < 10; i++ {
		if off+i >= len(b) {
			return 0, 0, &TruncatedError{Offset: len(b)}
		}
		c := b[off+i]
		if c < 0x80 {
			if i == 9 && c > 1 {
				return 0, 0, &CorruptError{Offset: off, Reason: "uvarint overflows 64 bits"}
			}
			return v | uint64(c)<<(7*i), off + i + 1, nil
		}
		v |= uint64(c&0x7f) << (7 * i)
	}
	return 0, 0, &CorruptError{Offset: off, Reason: "uvarint longer than 10 bytes"}
}

// readZigzag decodes a zigzag-mapped varint.
func readZigzag(b []byte, off int) (int64, int, error) {
	u, off, err := readUvarint(b, off)
	if err != nil {
		return 0, 0, err
	}
	return int64(u>>1) ^ -int64(u&1), off, nil
}

// readString decodes a length-prefixed string with a sanity bound.
func readString(b []byte, off int) (string, int, error) {
	n, off, err := readUvarint(b, off)
	if err != nil {
		return "", 0, err
	}
	if n > maxStringLen {
		return "", 0, &CorruptError{Offset: off, Reason: fmt.Sprintf("string length %d exceeds bound", n)}
	}
	if off+int(n) > len(b) {
		return "", 0, &TruncatedError{Offset: len(b)}
	}
	return string(b[off : off+int(n)]), off + int(n), nil
}

// readInt decodes a uvarint that must fit a non-negative int.
func readInt(b []byte, off int) (int, int, error) {
	u, off, err := readUvarint(b, off)
	if err != nil {
		return 0, 0, err
	}
	if u > maxIntValue {
		return 0, 0, &CorruptError{Offset: off, Reason: fmt.Sprintf("value %d exceeds int bound", u)}
	}
	return int(u), off, nil
}
