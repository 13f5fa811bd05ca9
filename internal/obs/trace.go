package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Arg is one key/value attached to an event. It is a fixed-size tagged
// union (string or int64) so Event stays allocation-free.
type Arg struct {
	Key   string
	Str   string
	Val   int64
	isStr bool
}

// A builds an integer Arg.
func A(key string, val int64) Arg { return Arg{Key: key, Val: val} }

// AS builds a string Arg.
func AS(key, val string) Arg { return Arg{Key: key, Str: val, isStr: true} }

// maxArgs bounds per-event payload so Event is a flat value type.
const maxArgs = 3

// Event is one Chrome trace-event record. TS and Dur are nanoseconds since
// the tracer's start (the exporter converts to microseconds, which is what
// the trace-event schema uses).
type Event struct {
	Name  string
	Cat   string
	Ph    byte // 'X' complete, 'i' instant, 'M' metadata
	TS    int64
	Dur   int64
	Tid   int64
	NArgs int
	Args  [maxArgs]Arg
}

func fillArgs(ev *Event, args []Arg) {
	n := len(args)
	if n > maxArgs {
		n = maxArgs
	}
	ev.NArgs = n
	copy(ev.Args[:], args[:n])
}

// Span builds a complete ('X') event covering [ts, ts+dur) nanoseconds.
func Span(name, cat string, ts, dur, tid int64, args ...Arg) Event {
	ev := Event{Name: name, Cat: cat, Ph: 'X', TS: ts, Dur: dur, Tid: tid}
	fillArgs(&ev, args)
	return ev
}

// Instant builds an instant ('i') event at ts nanoseconds.
func Instant(name, cat string, ts, tid int64, args ...Arg) Event {
	ev := Event{Name: name, Cat: cat, Ph: 'i', TS: ts, Tid: tid}
	fillArgs(&ev, args)
	return ev
}

// DefaultRingEvents is the per-thread ring capacity. At 4096 events a ring
// holds far more than one GC interval's worth of traps/fault-ins; overflow
// overwrites the oldest event and is counted.
const DefaultRingEvents = 4096

// initialRingEvents is the buffer a ring allocates on its first event; it
// doubles from there up to DefaultRingEvents.
const initialRingEvents = 16

// MaxSinkEvents caps the non-metadata events the sink retains. Beyond it
// the oldest are discarded and counted in Dropped, so a long-running
// daemon's tracer holds a constant ~14 MB window instead of every GC span
// since boot. Metadata (process/thread names) is kept regardless.
const MaxSinkEvents = 1 << 16

// Ring is a per-thread event buffer. The owning thread writes to it only
// from inside its critical regions (between beginOp and endOp), with no
// locking; it is read only by the collector during stop-the-world
// (Tracer.DrainAll) or by the owner itself at thread exit
// (Tracer.CloseRing), both of which exclude concurrent writes by
// construction. A nil *Ring is the disabled path: every method is a no-op
// behind a single nil check.
//
// A ring is lazy: until its first event it holds no buffer and its thread
// has no thread_name record in the sink, so a thread that never traps costs
// one small struct.
type Ring struct {
	tr      *Tracer
	tid     int64
	name    string
	buf     []Event // nil until the first push
	start   int     // index of oldest event
	n       int     // number of valid events
	dropped uint64
}

// Instant records an instant event on the ring's thread. Must only be
// called by the owning thread inside a critical region.
func (r *Ring) Instant(name, cat string, args ...Arg) {
	if r == nil {
		return
	}
	ev := Event{Name: name, Cat: cat, Ph: 'i', TS: r.tr.Now(), Tid: r.tid}
	fillArgs(&ev, args)
	r.push(ev)
}

func (r *Ring) push(ev Event) {
	if r.n == len(r.buf) && len(r.buf) < DefaultRingEvents {
		r.grow()
	}
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = ev
		r.n++
		return
	}
	// Full: overwrite the oldest event.
	r.buf[r.start] = ev
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// grow allocates the buffer on the first push — naming the thread in the
// sink first, so its thread_name record precedes every event it owns — and
// doubles it afterwards. A ring below full capacity has never wrapped, so
// start is 0 and the live events are buf[:n].
func (r *Ring) grow() {
	size := 2 * len(r.buf)
	if r.buf == nil {
		r.tr.Emit(nameEvent("thread_name", r.tid, r.name))
		size = initialRingEvents
	}
	if size > DefaultRingEvents {
		size = DefaultRingEvents
	}
	buf := make([]Event, size)
	copy(buf, r.buf[:r.n])
	r.buf = buf
}

// Tid returns the ring's trace thread id (0 on nil).
func (r *Ring) Tid() int64 {
	if r == nil {
		return 0
	}
	return r.tid
}

// Tracer collects events into a central sink. Rare, non-mutator-path
// events (GC phase spans, stop-the-world latencies, fault firings, offload
// write retries) are Emit()ed directly under a short mutex; mutator-path
// events go through per-thread Rings and reach the sink only at STW or
// thread exit. Holders of the sink mutex never block on anything else, so
// the tracer cannot deadlock against the safepoint barrier. A nil *Tracer
// is the disabled path.
//
// The sink is bounded: metadata records are kept for the tracer's life,
// everything else lives in a MaxSinkEvents-deep window that discards
// oldest-first once full.
type Tracer struct {
	startWall time.Time

	mu sync.Mutex
	// meta holds the metadata records; each remembers how many
	// non-metadata events preceded it so WriteTrace can interleave the two
	// in emission order.
	meta []metaEvent
	// window holds the newest non-metadata events. It grows by append up
	// to MaxSinkEvents and is circular from then on, oldest at head.
	window  []Event
	head    int
	emitted uint64 // non-metadata events ever appended
	rings   []*Ring
	nextTid int64
	dropped uint64
}

type metaEvent struct {
	ev     Event
	before uint64 // value of Tracer.emitted when the record arrived
}

// NewTracer creates a tracer whose clock starts now. Tid 0 is reserved for
// VM-global events (GC phases, STW).
func NewTracer() *Tracer {
	t := &Tracer{startWall: time.Now(), nextTid: 1}
	t.appendLocked(nameEvent("process_name", 0, "leakpruning-vm"))
	t.appendLocked(nameEvent("thread_name", 0, "gc/stw"))
	return t
}

// nameEvent builds the metadata record (kind "process_name" or
// "thread_name") that labels a track in the trace viewer.
func nameEvent(kind string, tid int64, name string) Event {
	return Event{Name: kind, Cat: "__metadata", Ph: 'M', Tid: tid, NArgs: 1,
		Args: [maxArgs]Arg{AS("name", name)}}
}

// Now returns nanoseconds since the tracer started (0 on nil). Callers on
// the mutator fast path must not reach this when tracing is disabled; the
// nil-safe Ring/Tracer wrappers guarantee that.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.startWall).Nanoseconds()
}

// appendLocked adds ev to the sink, discarding the oldest non-metadata
// event when the window is full. Caller holds t.mu.
func (t *Tracer) appendLocked(ev Event) {
	if ev.Ph == 'M' {
		t.meta = append(t.meta, metaEvent{ev: ev, before: t.emitted})
		return
	}
	t.emitted++
	if len(t.window) < MaxSinkEvents {
		t.window = append(t.window, ev)
		return
	}
	t.window[t.head] = ev
	t.head = (t.head + 1) % len(t.window)
	t.dropped++
}

// Emit appends an event to the sink. Safe for concurrent use; no-op on nil.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.appendLocked(ev)
	t.mu.Unlock()
}

// NewRing registers a per-thread ring named name and returns it (nil on a
// nil tracer). Tids are assigned sequentially in registration order, which
// keeps traces deterministic for deterministic workloads. Registration is
// all that happens here: the ring's buffer and its thread_name record wait
// for the first event (Ring.grow).
func (t *Tracer) NewRing(name string) *Ring {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	r := &Ring{tr: t, tid: t.nextTid, name: name}
	t.nextTid++
	t.rings = append(t.rings, r)
	t.mu.Unlock()
	return r
}

func (t *Tracer) drainLocked(r *Ring) {
	for i := 0; i < r.n; i++ {
		t.appendLocked(r.buf[(r.start+i)%len(r.buf)])
	}
	t.dropped += r.dropped
	r.start, r.n, r.dropped = 0, 0, 0
}

// DrainAll moves every ring's buffered events into the sink, in ring
// registration (tid) order. Must only be called while all ring owners are
// stopped (STW) — the collector calls it at the start of each collection.
func (t *Tracer) DrainAll() {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, r := range t.rings {
		t.drainLocked(r)
	}
	t.mu.Unlock()
}

// CloseRing drains r and unregisters it. Called by the owning thread at
// exit, from inside its final critical region.
func (t *Tracer) CloseRing(r *Ring) {
	if t == nil || r == nil {
		return
	}
	t.mu.Lock()
	t.drainLocked(r)
	for i, x := range t.rings {
		if x == r {
			t.rings = append(t.rings[:i], t.rings[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// Len returns the number of events currently in the sink (drained rings
// excluded until DrainAll/CloseRing).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.meta) + len(t.window)
}

// Dropped returns how many events were lost: ring events overwritten
// before draining plus sink events discarded past MaxSinkEvents.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// snapshot returns the retained events in emission order: the window's
// events oldest-first, each metadata record placed before the first
// retained event that followed it.
func (t *Tracer) snapshot() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.meta)+len(t.window))
	oldest := t.emitted - uint64(len(t.window))
	mi := 0
	for i := range t.window {
		for ; mi < len(t.meta) && t.meta[mi].before <= oldest+uint64(i); mi++ {
			out = append(out, t.meta[mi].ev)
		}
		out = append(out, t.window[(t.head+i)%len(t.window)])
	}
	for ; mi < len(t.meta); mi++ {
		out = append(out, t.meta[mi].ev)
	}
	return out
}

func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `""`
	}
	return string(b)
}

func writeEvent(b *strings.Builder, ev *Event, seq int, normalize bool) {
	b.WriteString(`{"name":`)
	b.WriteString(jsonString(ev.Name))
	b.WriteString(`,"cat":`)
	b.WriteString(jsonString(ev.Cat))
	fmt.Fprintf(b, `,"ph":"%c","pid":1,"tid":%d`, ev.Ph, ev.Tid)
	if ev.Ph != 'M' {
		if normalize {
			// Timestamp normalization for the golden determinism test:
			// ts becomes the event's sequence index, durations collapse
			// to zero, so only event identity/order/payload remain.
			fmt.Fprintf(b, `,"ts":%d`, seq)
			if ev.Ph == 'X' {
				b.WriteString(`,"dur":0`)
			}
		} else {
			// trace-event timestamps are microseconds; keep ns precision
			// in the fraction.
			fmt.Fprintf(b, `,"ts":%d.%03d`, ev.TS/1000, ev.TS%1000)
			if ev.Ph == 'X' {
				fmt.Fprintf(b, `,"dur":%d.%03d`, ev.Dur/1000, ev.Dur%1000)
			}
		}
		if ev.Ph == 'i' {
			b.WriteString(`,"s":"t"`)
		}
	}
	if ev.NArgs > 0 {
		b.WriteString(`,"args":{`)
		for i := 0; i < ev.NArgs; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			a := &ev.Args[i]
			b.WriteString(jsonString(a.Key))
			b.WriteByte(':')
			if a.isStr {
				b.WriteString(jsonString(a.Str))
			} else {
				fmt.Fprintf(b, "%d", a.Val)
			}
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
}

// WriteTrace writes the sink as a Chrome trace-event JSON array (the
// format Perfetto and chrome://tracing load directly). It does NOT drain
// rings first — call DrainAll (or let thread exit / STW do it) before
// exporting. With normalize set, timestamps are replaced by sequence
// indices and durations by zero; two deterministic runs then produce
// byte-identical output. Safe on a nil tracer (writes an empty array).
func (t *Tracer) WriteTrace(w io.Writer, normalize bool) error {
	var events []Event
	if t != nil {
		events = t.snapshot()
	}
	var b strings.Builder
	b.WriteString("[")
	for i := range events {
		if i > 0 {
			b.WriteString(",\n")
		} else {
			b.WriteString("\n")
		}
		writeEvent(&b, &events[i], i, normalize)
	}
	b.WriteString("\n]\n")
	_, err := io.WriteString(w, b.String())
	return err
}
