package trace

import (
	"fmt"
)

// Trace is a parsed trace: the decoded header plus the raw event body.
// Events are decoded on demand through Iter, so multiple replay clones can
// walk the same Trace concurrently, each with its own iterator.
type Trace struct {
	Meta    Meta
	Classes []ClassDef // row i describes class ID i+1
	Globals int
	Threads []string // stream IDs 1..len(Threads), in creation order

	body    []byte
	bodyOff int // offset of body[0] in the original input, for error offsets
}

// ReadTrace parses the header of a serialized trace and validates its
// structure. The event body is decoded lazily by Iter; use Validate to
// decode it all eagerly.
func ReadTrace(data []byte) (*Trace, error) {
	if len(data) < len(magic) {
		return nil, ErrBadMagic
	}
	for i, c := range magic {
		if data[i] != c {
			return nil, ErrBadMagic
		}
	}
	off := len(magic)
	version, off, err := readUvarint(data, off)
	if err != nil {
		return nil, err
	}
	if version != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	tr := &Trace{}
	// The third header string is reserved: it named a since-removed
	// synchronization mode, and is skipped so old traces still parse.
	var reserved string
	strs := []*string{
		&tr.Meta.Program, &tr.Meta.Policy, &reserved,
		&tr.Meta.MarkMode, &tr.Meta.BarrierVariant, &tr.Meta.ForceState,
	}
	for _, p := range strs {
		if *p, off, err = readString(data, off); err != nil {
			return nil, err
		}
	}
	if tr.Meta.HeapLimit, off, err = readUvarint(data, off); err != nil {
		return nil, err
	}
	if tr.Meta.Flags, off, err = readUvarint(data, off); err != nil {
		return nil, err
	}
	if tr.Meta.Fingerprint, off, err = readUvarint(data, off); err != nil {
		return nil, err
	}

	nClasses, off, err := readUvarint(data, off)
	if err != nil {
		return nil, err
	}
	if nClasses > maxTableLen {
		return nil, &CorruptError{Offset: off, Reason: fmt.Sprintf("class table length %d exceeds bound", nClasses)}
	}
	tr.Classes = make([]ClassDef, nClasses)
	for i := range tr.Classes {
		c := &tr.Classes[i]
		if c.Name, off, err = readString(data, off); err != nil {
			return nil, err
		}
		if c.RefSlots, off, err = readInt(data, off); err != nil {
			return nil, err
		}
		if c.ScalarBytes, off, err = readInt(data, off); err != nil {
			return nil, err
		}
	}
	if tr.Globals, off, err = readInt(data, off); err != nil {
		return nil, err
	}
	nThreads, off, err := readUvarint(data, off)
	if err != nil {
		return nil, err
	}
	if nThreads > maxTableLen {
		return nil, &CorruptError{Offset: off, Reason: fmt.Sprintf("thread table length %d exceeds bound", nThreads)}
	}
	tr.Threads = make([]string, nThreads)
	for i := range tr.Threads {
		if tr.Threads[i], off, err = readString(data, off); err != nil {
			return nil, err
		}
	}
	tr.body = data[off:]
	tr.bodyOff = off
	return tr, nil
}

// Validate decodes every event in the body, returning the event count or
// the first decode error. It is the structural check 'lp trace verify'
// and the fuzz target run.
func (tr *Trace) Validate() (int, error) {
	it := tr.Iter()
	var ev Event
	n := 0
	for {
		ok, err := it.Next(&ev)
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// streamState carries a stream's delta-decode state across blocks.
type streamState struct {
	prevAlloc uint64
	lastRef   uint64
	lastFree  uint64
}

// Iter walks a trace's events in file order (the order blocks were
// drained, which interleaves streams the way the recorded run did). Each
// iterator is independent; a Trace may be iterated concurrently.
type Iter struct {
	tr  *Trace
	off int // position in tr.body

	cur    []byte // current block payload
	curOff int    // position within cur
	curAbs int    // absolute offset of cur[0] for error reporting
	stream int    // current block's stream ID

	states []streamState // index = stream ID (0..len(Threads))
}

// Iter returns a fresh iterator over the trace body.
func (tr *Trace) Iter() *Iter {
	return &Iter{tr: tr, states: make([]streamState, len(tr.Threads)+1)}
}

// Next decodes the next event into ev, returning false at a clean end of
// trace. ev is fully overwritten on success.
func (it *Iter) Next(ev *Event) (bool, error) {
	for it.curOff >= len(it.cur) {
		if it.off >= len(it.tr.body) {
			return false, nil
		}
		if err := it.nextBlock(); err != nil {
			return false, err
		}
	}
	return true, it.decodeEvent(ev)
}

// nextBlock advances to the next non-empty block.
func (it *Iter) nextBlock() error {
	b, off := it.tr.body, it.off
	id, off, err := readUvarint(b, off)
	if err != nil {
		return it.rebase(err)
	}
	if id > uint64(len(it.tr.Threads)) {
		return &CorruptError{Offset: it.tr.bodyOff + it.off, Reason: fmt.Sprintf("block stream %d out of range (%d threads)", id, len(it.tr.Threads))}
	}
	n, off, err := readUvarint(b, off)
	if err != nil {
		return it.rebase(err)
	}
	if n == 0 {
		return &CorruptError{Offset: it.tr.bodyOff + it.off, Reason: "empty block"}
	}
	if uint64(len(b)-off) < n {
		return &TruncatedError{Offset: it.tr.bodyOff + len(b)}
	}
	it.stream = int(id)
	it.cur = b[off : off+int(n)]
	it.curOff = 0
	it.curAbs = it.tr.bodyOff + off
	it.off = off + int(n)
	return nil
}

// rebase shifts a body-relative decode error to an absolute input offset.
func (it *Iter) rebase(err error) error {
	switch e := err.(type) {
	case *CorruptError:
		e.Offset += it.tr.bodyOff
	case *TruncatedError:
		e.Offset += it.tr.bodyOff
	}
	return err
}

// rebaseBlock shifts a block-relative decode error to an absolute offset.
func (it *Iter) rebaseBlock(err error) error {
	switch e := err.(type) {
	case *CorruptError:
		e.Offset += it.curAbs
	case *TruncatedError:
		// A uvarint running off the end of a block payload means the block
		// length lied — corrupt, not truncated input.
		return &CorruptError{Offset: it.curAbs + e.Offset, Reason: "event runs past block end"}
	}
	return err
}

// decodeEvent decodes one event from the current block.
func (it *Iter) decodeEvent(ev *Event) error {
	b, off := it.cur, it.curOff
	st := &it.states[it.stream]
	k := Kind(b[off])
	off++
	*ev = Event{Kind: k, Stream: it.stream, RefSlots: -1, ScalarBytes: -1}
	var err error
	var u uint64
	var d int64
	switch k {
	case EvAlloc, EvAllocShaped:
		if u, off, err = readUvarint(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		ev.Class = uint32(u)
		if d, off, err = readZigzag(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		ev.Obj = uint64(int64(st.prevAlloc) + d)
		st.prevAlloc = ev.Obj
		st.lastRef = ev.Obj
		if k == EvAllocShaped {
			if ev.RefSlots, off, err = readInt(b, off); err != nil {
				return it.rebaseBlock(err)
			}
			if ev.ScalarBytes, off, err = readInt(b, off); err != nil {
				return it.rebaseBlock(err)
			}
		}
	case EvAllocFail, EvAllocFailShaped:
		if u, off, err = readUvarint(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		ev.Class = uint32(u)
		if k == EvAllocFailShaped {
			if ev.RefSlots, off, err = readInt(b, off); err != nil {
				return it.rebaseBlock(err)
			}
			if ev.ScalarBytes, off, err = readInt(b, off); err != nil {
				return it.rebaseBlock(err)
			}
		}
	case EvLoad, EvStore:
		if d, off, err = readZigzag(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		ev.Obj = uint64(int64(st.lastRef) + d)
		st.lastRef = ev.Obj
		if ev.Slot, off, err = readInt(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		if k == EvStore {
			if ev.Val, off, err = readUvarint(b, off); err != nil {
				return it.rebaseBlock(err)
			}
		}
	case EvLoadGlobal, EvStoreGlobal:
		if ev.Arg, off, err = readInt(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		if k == EvStoreGlobal {
			if ev.Val, off, err = readUvarint(b, off); err != nil {
				return it.rebaseBlock(err)
			}
		}
	case EvPush:
		if ev.Arg, off, err = readInt(b, off); err != nil {
			return it.rebaseBlock(err)
		}
	case EvPop, EvThreadEnd:
		// no payload
	case EvFrameSet:
		if ev.Arg, off, err = readInt(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		if ev.Slot, off, err = readInt(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		if ev.Val, off, err = readUvarint(b, off); err != nil {
			return it.rebaseBlock(err)
		}
	case EvIter:
		if ev.Arg, off, err = readInt(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		if ev.DT, off, err = readUvarint(b, off); err != nil {
			return it.rebaseBlock(err)
		}
	case EvFree:
		if it.stream != 0 {
			return &CorruptError{Offset: it.curAbs + it.curOff, Reason: "free event on a mutator stream"}
		}
		if d, off, err = readZigzag(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		ev.Obj = uint64(int64(st.lastFree) + d)
		st.lastFree = ev.Obj
	case EvGCCycle:
		if it.stream != 0 {
			return &CorruptError{Offset: it.curAbs + it.curOff, Reason: "gc-cycle event on a mutator stream"}
		}
		if ev.GC.Index, off, err = readUvarint(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		if u, off, err = readUvarint(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		ev.GC.Mode = uint8(u)
		if u, off, err = readUvarint(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		ev.GC.State = uint8(u)
		if ev.GC.BytesLive, off, err = readUvarint(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		if ev.GC.Candidates, off, err = readInt(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		if ev.GC.Pruned, off, err = readInt(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		if u, off, err = readUvarint(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		ev.GC.Degraded = u&1 != 0
		if ev.GC.LiveHash, off, err = readUvarint(b, off); err != nil {
			return it.rebaseBlock(err)
		}
		if ev.DT, off, err = readUvarint(b, off); err != nil {
			return it.rebaseBlock(err)
		}
	default:
		return &CorruptError{Offset: it.curAbs + it.curOff, Reason: fmt.Sprintf("unknown event kind %d", uint8(k))}
	}
	it.curOff = off
	return nil
}

// Stat summarizes a trace for 'lp trace stat'.
type Stat struct {
	Events   int
	ByKind   [kindMax]int
	Cycles   []GCInfo
	MaxIter  int
	Bytes    int
	PerEvent float64
}

// Stats decodes the whole trace and returns summary counts; decode errors
// surface as from Validate.
func (tr *Trace) Stats() (Stat, error) {
	st := Stat{Bytes: tr.bodyOff + len(tr.body)}
	it := tr.Iter()
	var ev Event
	for {
		ok, err := it.Next(&ev)
		if err != nil {
			return st, err
		}
		if !ok {
			break
		}
		st.Events++
		st.ByKind[ev.Kind]++
		switch ev.Kind {
		case EvGCCycle:
			st.Cycles = append(st.Cycles, ev.GC)
		case EvIter:
			if ev.Arg > st.MaxIter {
				st.MaxIter = ev.Arg
			}
		}
	}
	if st.Events > 0 {
		st.PerEvent = float64(st.Bytes) / float64(st.Events)
	}
	return st, nil
}
