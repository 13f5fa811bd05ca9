package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func parseTrace(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, data)
	}
	return events
}

// TestTraceJSONShape checks the exported stream is a valid trace-event
// array: every event has name/ph/pid/tid, spans carry ts+dur, instants
// carry ts, and args survive with both string and integer values.
func TestTraceJSONShape(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Span("gc.mark", "gc", 1500, 2500, 0, A("gc", 3), AS("mode", "prune")))
	tr.Emit(Instant("fault.fire", "fault", 4200, 0, AS("point", "alloc-limit-race")))
	r := tr.NewRing("mutator")
	r.Instant("poison.trap", "vm", A("src_class", 7))
	tr.DrainAll()

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, false); err != nil {
		t.Fatal(err)
	}
	events := parseTrace(t, buf.Bytes())
	var sawSpan, sawInstant, sawTrap, sawThreadName bool
	for _, ev := range events {
		for _, field := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event missing %q: %v", field, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("span missing ts: %v", ev)
			}
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("span missing dur: %v", ev)
			}
			if ev["name"] == "gc.mark" {
				sawSpan = true
				args := ev["args"].(map[string]any)
				if args["gc"].(float64) != 3 || args["mode"] != "prune" {
					t.Fatalf("span args mangled: %v", args)
				}
				if ev["ts"].(float64) != 1.5 || ev["dur"].(float64) != 2.5 {
					t.Fatalf("ns->us conversion wrong: %v", ev)
				}
			}
		case "i":
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("instant missing ts: %v", ev)
			}
			if ev["name"] == "fault.fire" {
				sawInstant = true
			}
			if ev["name"] == "poison.trap" && ev["tid"].(float64) == 1 {
				sawTrap = true
			}
		case "M":
			if ev["name"] == "thread_name" {
				sawThreadName = true
			}
		}
	}
	if !sawSpan || !sawInstant || !sawTrap || !sawThreadName {
		t.Fatalf("missing expected events (span=%v instant=%v trap=%v meta=%v)",
			sawSpan, sawInstant, sawTrap, sawThreadName)
	}
}

// TestRingOverflow fills a ring past capacity and checks the oldest events
// are overwritten and counted as dropped.
func TestRingOverflow(t *testing.T) {
	tr := NewTracer()
	r := tr.NewRing("hot")
	total := DefaultRingEvents + 100
	for i := 0; i < total; i++ {
		r.Instant("e", "t", A("i", int64(i)))
	}
	tr.DrainAll()
	if got := tr.Dropped(); got != 100 {
		t.Fatalf("dropped = %d, want 100", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, false); err != nil {
		t.Fatal(err)
	}
	events := parseTrace(t, buf.Bytes())
	// The survivors must be the LAST DefaultRingEvents instants, in order.
	var seen []int64
	for _, ev := range events {
		if ev["name"] == "e" {
			seen = append(seen, int64(ev["args"].(map[string]any)["i"].(float64)))
		}
	}
	if len(seen) != DefaultRingEvents {
		t.Fatalf("survivors = %d, want %d", len(seen), DefaultRingEvents)
	}
	for k, v := range seen {
		if want := int64(100 + k); v != want {
			t.Fatalf("survivor[%d] = %d, want %d", k, v, want)
		}
	}
}

// TestNormalizedDeterminism runs the same logical event sequence through
// two tracers (whose wall-clock timestamps necessarily differ) and checks
// the normalized exports are byte-identical while the raw ones are not
// required to be.
func TestNormalizedDeterminism(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracer()
		r := tr.NewRing("worker")
		tr.Emit(Span("gc.mark", "gc", tr.Now(), 10, 0, A("gc", 1)))
		r.Instant("poison.trap", "vm", A("slot", 2))
		tr.Emit(Instant("stw.stop", "safepoint", tr.Now(), 0))
		tr.CloseRing(r)
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteTrace(&a, true); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteTrace(&b, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("normalized traces differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), `"dur":0`) || strings.Contains(a.String(), `"ts":0.`) {
		t.Fatalf("normalized trace should use sequence timestamps and zero durations: %s", a.String())
	}
	events := parseTrace(t, a.Bytes())
	if len(events) == 0 {
		t.Fatal("empty normalized trace")
	}
}

// TestCloseRingUnregisters checks a closed ring is drained once and no
// longer touched by DrainAll.
func TestCloseRingUnregisters(t *testing.T) {
	tr := NewTracer()
	r := tr.NewRing("t")
	r.Instant("e", "c")
	tr.CloseRing(r)
	n := tr.Len()
	tr.DrainAll()
	if tr.Len() != n {
		t.Fatal("DrainAll touched a closed ring")
	}
}

// traceNames exports tr and returns each event's "name" (or, for
// thread_name records, "thread_name:<thread>") in sink order.
func traceNames(t *testing.T, tr *Tracer) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, true); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ev := range parseTrace(t, buf.Bytes()) {
		name := ev["name"].(string)
		if name == "thread_name" {
			name += ":" + ev["args"].(map[string]any)["name"].(string)
		}
		names = append(names, name)
	}
	return names
}

// TestRingIsLazy pins the idle-thread contract: registering a ring assigns
// its tid and nothing else — no buffer, no sink event — and a ring that is
// closed without ever receiving an event leaves the sink untouched. The
// first event allocates a small buffer and names the thread ahead of it.
func TestRingIsLazy(t *testing.T) {
	tr := NewTracer()
	base := tr.Len()
	idle := tr.NewRing("idle")
	busy := tr.NewRing("busy")
	if idle.Tid() != 1 || busy.Tid() != 2 {
		t.Fatalf("tids = %d, %d; want registration order 1, 2", idle.Tid(), busy.Tid())
	}
	if idle.buf != nil || busy.buf != nil {
		t.Fatal("a ring allocated its buffer before its first event")
	}
	tr.DrainAll()
	tr.CloseRing(idle)
	if got := tr.Len(); got != base {
		t.Fatalf("an eventless ring added %d sink events", got-base)
	}

	busy.Instant("poison.trap", "vm")
	if got := len(busy.buf); got != initialRingEvents {
		t.Fatalf("first event allocated %d slots, want %d", got, initialRingEvents)
	}
	for i := 0; i < 3*initialRingEvents; i++ {
		busy.Instant("e", "t")
	}
	tr.CloseRing(busy)
	names := traceNames(t, tr)[base:]
	if len(names) != 2+3*initialRingEvents {
		t.Fatalf("sink gained %d events, want thread_name + %d instants", len(names), 1+3*initialRingEvents)
	}
	if names[0] != "thread_name:busy" || names[1] != "poison.trap" {
		t.Fatalf("sink order = %v..., want thread_name:busy then poison.trap", names[:2])
	}
	for _, n := range names {
		if n == "thread_name:idle" {
			t.Fatal("the eventless ring's thread was named in the sink")
		}
	}
}

// TestSinkIsBounded drives the sink past MaxSinkEvents: the oldest
// non-metadata events are discarded and counted, metadata survives, and
// what remains is still in emission order.
func TestSinkIsBounded(t *testing.T) {
	tr := NewTracer()
	meta := tr.Len() // process_name + gc/stw thread_name
	const excess = 1000
	early := tr.NewRing("early")
	early.Instant("first", "t") // will be discarded; its thread_name must not be
	tr.CloseRing(early)
	for i := 1; i < MaxSinkEvents+excess-1; i++ {
		tr.Emit(Instant("e", "t", 0, 0, A("i", int64(i))))
	}
	late := tr.NewRing("late")
	late.Instant("last", "t")
	tr.CloseRing(late)

	if got, want := tr.Len(), meta+2+MaxSinkEvents; got != want {
		t.Fatalf("Len = %d, want %d (metadata + a full window)", got, want)
	}
	if got := tr.Dropped(); got != excess {
		t.Fatalf("Dropped = %d, want %d", got, excess)
	}

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, false); err != nil {
		t.Fatal(err)
	}
	events := parseTrace(t, buf.Bytes())
	if len(events) != meta+2+MaxSinkEvents {
		t.Fatalf("exported %d events, want %d", len(events), meta+2+MaxSinkEvents)
	}
	// Metadata whose events were all discarded sorts to the front; the
	// window follows oldest-first; "late" is named right before its event.
	if got := events[meta]["args"].(map[string]any)["name"]; got != "early" {
		t.Fatalf("event %d names thread %v, want the early ring's surviving thread_name", meta, got)
	}
	next := int64(excess)
	for _, ev := range events[meta+1 : len(events)-2] {
		if got := int64(ev["args"].(map[string]any)["i"].(float64)); got != next {
			t.Fatalf("window out of order: got i=%d, want %d", got, next)
		}
		next++
	}
	tail := events[len(events)-2:]
	if tail[0]["name"] != "thread_name" || tail[1]["name"] != "last" {
		t.Fatalf("tail = %v, %v; want thread_name then last", tail[0]["name"], tail[1]["name"])
	}
}
