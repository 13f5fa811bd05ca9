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

// MaxSinkEvents caps the non-metadata events the sink retains. Beyond it
// the oldest are discarded and counted in Dropped, so a long-running
// daemon's tracer holds a constant ~14 MB window instead of every GC span
// since boot. Metadata (process/thread names) is kept regardless.
const MaxSinkEvents = 1 << 16

// Tracer collects events into a central sink. Every event — GC phase
// spans, stop-the-world latencies, fault firings, offload retries, and the
// rare mutator events (poison traps, fault-ins) — is Emit()ed directly
// under a short mutex, so the sink holds events in emission order. Holders
// of the sink mutex never block on anything else, so the tracer cannot
// deadlock against the safepoint barrier. A nil *Tracer is the disabled
// path.
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
// the mutator fast path must not reach this when tracing is disabled: they
// test the *Tracer for nil first.
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

// NewTrack opens a track named name: it assigns the next tid and emits the
// track's thread_name record (0 and nothing on a nil tracer). Tids follow
// call order, which keeps traces deterministic for deterministic
// workloads. A mutator thread calls it before its first event, so a thread
// that never emits has no track.
func (t *Tracer) NewTrack(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	tid := t.nextTid
	t.nextTid++
	t.appendLocked(nameEvent("thread_name", tid, name))
	t.mu.Unlock()
	return tid
}

// Len returns the number of events currently in the sink.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.meta) + len(t.window)
}

// Dropped returns how many events the sink discarded past MaxSinkEvents.
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
// format Perfetto and chrome://tracing load directly), in emission order.
// With normalize set, timestamps are replaced by sequence indices and
// durations by zero; two deterministic runs then produce byte-identical
// output. Safe on a nil tracer (writes an empty array).
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
