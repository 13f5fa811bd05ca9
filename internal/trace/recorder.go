package trace

import (
	"io"
	"sync"
	"time"
)

// Recorder accumulates a trace in memory. All methods are nil-safe: a nil
// *Recorder (recording disabled) makes every call a no-op, so the VM's
// record sites stay unconditional and cost one branch when off — the same
// contract as the obs tracer.
//
// Mutator events go through per-thread Streams, whose buffers are written
// only by the owning thread inside its critical regions and flushed into
// the shared sink at stop-the-world drains (DrainAll) — mutually exclusive
// by the world protocol, so Stream appends need no lock. Collector events
// (Free, GCCycle) can arrive from a concurrent sweep while mutators run,
// so stream 0 lives behind the Recorder mutex.
type Recorder struct {
	start time.Time

	mu      sync.Mutex
	meta    Meta
	classes []ClassDef
	globals int
	streams []*Stream
	names   []string
	sink    []byte

	// Collector stream (stream 0) state.
	gcBuf      []byte
	gcLastFree uint64
	gcLastNs   uint64
}

// Stream is one mutator thread's event buffer. A nil *Stream is a no-op on
// every method, so threads of a non-recording VM carry a nil pointer and
// pay one branch per operation.
//
// Append methods must be called only by the owning thread inside a mutator
// critical region: the world protocol is what keeps them exclusive with
// DrainAll and WriteTo.
type Stream struct {
	rec *Recorder
	id  int

	buf       []byte
	prevAlloc uint64
	lastRef   uint64
	lastNs    uint64
	closed    bool
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{start: time.Now()}
}

// SetMeta stamps the run configuration (everything except the options
// fingerprint, which the VM supplies via SetFingerprint).
func (r *Recorder) SetMeta(m Meta) {
	if r == nil {
		return
	}
	r.mu.Lock()
	fp := r.meta.Fingerprint
	r.meta = m
	if m.Fingerprint == 0 {
		r.meta.Fingerprint = fp
	}
	r.mu.Unlock()
}

// SetFingerprint stamps the effective vm.Options hash.
func (r *Recorder) SetFingerprint(fp uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.meta.Fingerprint = fp
	r.mu.Unlock()
}

// DefineClass records a class-table row. IDs must arrive in registry order
// (1, 2, 3, ...); re-definitions of an already-recorded ID are ignored,
// matching the registry's idempotent Define.
func (r *Recorder) DefineClass(id uint32, name string, refSlots, scalarBytes int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if int(id) == len(r.classes)+1 {
		r.classes = append(r.classes, ClassDef{Name: name, RefSlots: refSlots, ScalarBytes: scalarBytes})
	}
	r.mu.Unlock()
}

// AddGlobal records that global slot idx now exists.
func (r *Recorder) AddGlobal(idx int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if idx+1 > r.globals {
		r.globals = idx + 1
	}
	r.mu.Unlock()
}

// NewStream registers a mutator thread and returns its stream (nil when
// the recorder is nil). Threads appear in the header's thread table in
// creation order.
func (r *Recorder) NewStream(name string) *Stream {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	s := &Stream{rec: r, id: len(r.streams) + 1}
	r.streams = append(r.streams, s)
	r.names = append(r.names, name)
	r.mu.Unlock()
	return s
}

// DrainAll flushes every stream's buffer into the sink. Must be called
// with the world stopped (no mutator inside a critical region).
func (r *Recorder) DrainAll() {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, s := range r.streams {
		r.flushLocked(s.id, &s.buf)
	}
	r.flushLocked(0, &r.gcBuf)
	r.mu.Unlock()
}

// flushLocked appends one stream's pending bytes as a block.
func (r *Recorder) flushLocked(id int, buf *[]byte) {
	if len(*buf) == 0 {
		return
	}
	r.sink = appendUvarint(r.sink, uint64(id))
	r.sink = appendUvarint(r.sink, uint64(len(*buf)))
	r.sink = append(r.sink, *buf...)
	*buf = (*buf)[:0]
}

// Free records a collector free of object id on stream 0. Safe to call
// concurrently with mutators (concurrent sweep delivers frees while the
// world runs).
func (r *Recorder) Free(id uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gcBuf = append(r.gcBuf, byte(EvFree))
	r.gcBuf = appendZigzag(r.gcBuf, int64(id)-int64(r.gcLastFree))
	r.gcLastFree = id
	r.mu.Unlock()
}

// GCCycle records a completed full-heap collection on stream 0 and flushes
// the collector stream, so cycle records land in the sink adjacent to the
// mutator blocks drained in the same pause.
func (r *Recorder) GCCycle(info GCInfo) {
	if r == nil {
		return
	}
	now := uint64(time.Since(r.start))
	r.mu.Lock()
	b := append(r.gcBuf, byte(EvGCCycle))
	b = appendUvarint(b, info.Index)
	b = appendUvarint(b, uint64(info.Mode))
	b = appendUvarint(b, uint64(info.State))
	b = appendUvarint(b, info.BytesLive)
	b = appendUvarint(b, uint64(info.Candidates))
	b = appendUvarint(b, uint64(info.Pruned))
	flags := uint64(0)
	if info.Degraded {
		flags |= 1
	}
	b = appendUvarint(b, flags)
	b = appendUvarint(b, info.LiveHash)
	dt := now - r.gcLastNs
	r.gcLastNs = now
	b = appendUvarint(b, dt)
	r.gcBuf = b
	r.flushLocked(0, &r.gcBuf)
	r.mu.Unlock()
}

// WriteTo performs a final drain and writes the complete trace: header
// (meta, class table, global count, thread table) followed by the block
// sink. Must be called after the recorded run has finished (no mutator in
// a critical region and no collection in flight).
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	for _, s := range r.streams {
		r.flushLocked(s.id, &s.buf)
	}
	r.flushLocked(0, &r.gcBuf)

	var h []byte
	h = append(h, magic[:]...)
	h = appendUvarint(h, Version)
	h = appendString(h, r.meta.Program)
	h = appendString(h, r.meta.Policy)
	h = appendString(h, "") // reserved slot, see ReadTrace
	h = appendString(h, r.meta.MarkMode)
	h = appendString(h, r.meta.BarrierVariant)
	h = appendString(h, r.meta.ForceState)
	h = appendUvarint(h, r.meta.HeapLimit)
	h = appendUvarint(h, r.meta.Flags)
	h = appendUvarint(h, r.meta.Fingerprint)
	h = appendUvarint(h, uint64(len(r.classes)))
	for _, c := range r.classes {
		h = appendString(h, c.Name)
		h = appendUvarint(h, uint64(c.RefSlots))
		h = appendUvarint(h, uint64(c.ScalarBytes))
	}
	h = appendUvarint(h, uint64(r.globals))
	h = appendUvarint(h, uint64(len(r.names)))
	for _, name := range r.names {
		h = appendString(h, name)
	}
	sink := r.sink
	r.mu.Unlock()

	n, err := w.Write(h)
	total := int64(n)
	if err != nil {
		return total, err
	}
	n, err = w.Write(sink)
	return total + int64(n), err
}

// --- Stream append methods (owner thread, inside a critical region) ---

// Alloc records a successful default-shape allocation.
func (s *Stream) Alloc(class uint32, id uint64) {
	if s == nil {
		return
	}
	s.buf = append(s.buf, byte(EvAlloc))
	s.buf = appendUvarint(s.buf, uint64(class))
	s.buf = appendZigzag(s.buf, int64(id)-int64(s.prevAlloc))
	s.prevAlloc = id
	s.lastRef = id
}

// AllocShaped records a successful allocation with an explicit shape.
func (s *Stream) AllocShaped(class uint32, id uint64, refSlots, scalarBytes int) {
	if s == nil {
		return
	}
	s.buf = append(s.buf, byte(EvAllocShaped))
	s.buf = appendUvarint(s.buf, uint64(class))
	s.buf = appendZigzag(s.buf, int64(id)-int64(s.prevAlloc))
	s.buf = appendUvarint(s.buf, uint64(refSlots))
	s.buf = appendUvarint(s.buf, uint64(scalarBytes))
	s.prevAlloc = id
	s.lastRef = id
}

// AllocFail records the allocation that exhausted memory (default shape).
func (s *Stream) AllocFail(class uint32) {
	if s == nil {
		return
	}
	s.buf = append(s.buf, byte(EvAllocFail))
	s.buf = appendUvarint(s.buf, uint64(class))
}

// AllocFailShaped records a shaped allocation that exhausted memory.
func (s *Stream) AllocFailShaped(class uint32, refSlots, scalarBytes int) {
	if s == nil {
		return
	}
	s.buf = append(s.buf, byte(EvAllocFailShaped))
	s.buf = appendUvarint(s.buf, uint64(class))
	s.buf = appendUvarint(s.buf, uint64(refSlots))
	s.buf = appendUvarint(s.buf, uint64(scalarBytes))
}

// Load records a reference load from src's slot.
func (s *Stream) Load(src uint64, slot int) {
	if s == nil {
		return
	}
	s.buf = append(s.buf, byte(EvLoad))
	s.buf = appendZigzag(s.buf, int64(src)-int64(s.lastRef))
	s.buf = appendUvarint(s.buf, uint64(slot))
	s.lastRef = src
}

// Store records a reference store into src's slot (val 0 = null).
func (s *Stream) Store(src uint64, slot int, val uint64) {
	if s == nil {
		return
	}
	s.buf = append(s.buf, byte(EvStore))
	s.buf = appendZigzag(s.buf, int64(src)-int64(s.lastRef))
	s.buf = appendUvarint(s.buf, uint64(slot))
	s.buf = appendUvarint(s.buf, val)
	s.lastRef = src
}

// LoadGlobal records a global read.
func (s *Stream) LoadGlobal(g int) {
	if s == nil {
		return
	}
	s.buf = append(s.buf, byte(EvLoadGlobal))
	s.buf = appendUvarint(s.buf, uint64(g))
}

// StoreGlobal records a global write (val 0 = null).
func (s *Stream) StoreGlobal(g int, val uint64) {
	if s == nil {
		return
	}
	s.buf = append(s.buf, byte(EvStoreGlobal))
	s.buf = appendUvarint(s.buf, uint64(g))
	s.buf = appendUvarint(s.buf, val)
}

// Push records a frame push of n slots.
func (s *Stream) Push(n int) {
	if s == nil {
		return
	}
	s.buf = append(s.buf, byte(EvPush))
	s.buf = appendUvarint(s.buf, uint64(n))
}

// Pop records a frame pop.
func (s *Stream) Pop() {
	if s == nil {
		return
	}
	s.buf = append(s.buf, byte(EvPop))
}

// FrameSet records a frame-slot write, depth frames down from the top of
// the thread's stack (val 0 = null).
func (s *Stream) FrameSet(depth, slot int, val uint64) {
	if s == nil {
		return
	}
	s.buf = append(s.buf, byte(EvFrameSet))
	s.buf = appendUvarint(s.buf, uint64(depth))
	s.buf = appendUvarint(s.buf, uint64(slot))
	s.buf = appendUvarint(s.buf, val)
}

// Iter records an iteration boundary with the wall-clock delta since the
// previous one — the replayer's pacing signal.
func (s *Stream) Iter(iter int) {
	if s == nil {
		return
	}
	now := uint64(time.Since(s.rec.start))
	s.buf = append(s.buf, byte(EvIter))
	s.buf = appendUvarint(s.buf, uint64(iter))
	s.buf = appendUvarint(s.buf, now-s.lastNs)
	s.lastNs = now
}

// Close records the thread's exit and flushes its buffer. Must be called
// by the owning thread inside its final critical region; the stream must
// not be used afterwards.
func (s *Stream) Close() {
	if s == nil || s.closed {
		return
	}
	s.closed = true
	s.buf = append(s.buf, byte(EvThreadEnd))
	r := s.rec
	r.mu.Lock()
	r.flushLocked(s.id, &s.buf)
	r.mu.Unlock()
}
