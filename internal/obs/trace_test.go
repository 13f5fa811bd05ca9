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
	tid := tr.NewTrack("mutator")
	tr.Emit(Instant("poison.trap", "vm", tr.Now(), tid, A("src_class", 7)))

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

// TestNormalizedDeterminism runs the same logical event sequence through
// two tracers (whose wall-clock timestamps necessarily differ) and checks
// the normalized exports are byte-identical while the raw ones are not
// required to be.
func TestNormalizedDeterminism(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracer()
		tr.Emit(Span("gc.mark", "gc", tr.Now(), 10, 0, A("gc", 1)))
		tid := tr.NewTrack("worker")
		tr.Emit(Instant("poison.trap", "vm", tr.Now(), tid, A("slot", 2)))
		tr.Emit(Instant("stw.stop", "safepoint", tr.Now(), 0))
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

// TestNewTrack pins what opening a track does: it assigns the next tid, in
// call order, and adds exactly one sink record — the track's thread_name —
// so the name precedes every event emitted on the track. A thread opens
// its track on its first event; one that never emits costs the tracer
// nothing.
func TestNewTrack(t *testing.T) {
	tr := NewTracer()
	base := tr.Len()
	first := tr.NewTrack("first")
	if got := tr.Len(); got != base+1 {
		t.Fatalf("NewTrack added %d sink records, want 1 (the thread_name)", got-base)
	}
	tr.Emit(Instant("poison.trap", "vm", tr.Now(), first))
	second := tr.NewTrack("second")
	tr.Emit(Instant("offload.faultin", "offload", tr.Now(), second))
	tr.Emit(Instant("poison.trap", "vm", tr.Now(), first))
	if first != 1 || second != 2 {
		t.Fatalf("tids = %d, %d; want call order 1, 2", first, second)
	}
	names := traceNames(t, tr)[base:]
	want := []string{"thread_name:first", "poison.trap", "thread_name:second", "offload.faultin", "poison.trap"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("sink order = %v, want %v", names, want)
	}
}

// TestSinkIsBounded drives the sink past MaxSinkEvents: the oldest
// non-metadata events are discarded and counted, metadata survives, and
// what remains is still in emission order.
func TestSinkIsBounded(t *testing.T) {
	tr := NewTracer()
	meta := tr.Len() // process_name + gc/stw thread_name
	const excess = 1000
	early := tr.NewTrack("early")
	tr.Emit(Instant("first", "t", 0, early)) // will be discarded; its thread_name must not be
	for i := 1; i < MaxSinkEvents+excess-1; i++ {
		tr.Emit(Instant("e", "t", 0, 0, A("i", int64(i))))
	}
	late := tr.NewTrack("late")
	tr.Emit(Instant("last", "t", 0, late))

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
		t.Fatalf("event %d names thread %v, want the early track's surviving thread_name", meta, got)
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
