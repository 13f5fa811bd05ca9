package vm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"leakpruning/internal/core"
	"leakpruning/internal/heap"
	"leakpruning/internal/obs"
	"leakpruning/internal/vmerrors"
)

// goldenTraceRun executes the safepoint equivalence test's deterministic
// single-threaded leak workload with the observability layer attached, probes
// the pruned structure until it traps, and returns the normalized trace
// stream (timestamps replaced by sink sequence numbers, durations zeroed).
func goldenTraceRun(t *testing.T, mark MarkMode) string {
	t.Helper()
	o := obs.New()
	v := New(Options{
		HeapLimit:      256 << 10,
		EnableBarriers: true,
		GCWorkers:      1,
		Policy:         core.DefaultPolicy{},
		MarkMode:       mark,
		Obs:            o,
	})
	holder := v.DefineClass("Holder", 2, 0)
	payload := v.DefineClass("Payload", 0, 2048)
	scratch := v.DefineClass("Scratch", 0, 64)
	g := v.AddGlobal()
	err := v.RunThread("leaker", func(th *Thread) {
		for i := 0; i < 1500; i++ {
			th.Scope(func() {
				h := th.New(holder)
				th.Store(h, 0, th.New(payload))
				th.Store(h, 1, th.LoadGlobal(g))
				th.StoreGlobal(g, h)
				for j := 0; j < 4; j++ {
					th.New(scratch)
				}
			})
		}
	})
	if err != nil {
		t.Fatalf("mark %v: leak workload died: %v", mark, err)
	}
	probe := equivalenceProbe(v, g)
	if !strings.HasPrefix(probe, "trap@") {
		t.Fatalf("mark %v: probe must hit a pruned edge, got %q", mark, probe)
	}
	var buf bytes.Buffer
	if err := o.Tracer().WriteTrace(&buf, true); err != nil {
		t.Fatalf("mark %v: WriteTrace: %v", mark, err)
	}
	return buf.String()
}

// parseTraceJSON parses an exported trace-event array.
func parseTraceJSON(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	return events
}

// exportTrace writes tr un-normalized and parses the result.
func exportTrace(t *testing.T, tr *obs.Tracer) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, false); err != nil {
		t.Fatal(err)
	}
	return parseTraceJSON(t, buf.Bytes())
}

// trackNames maps each named track's tid to its thread name.
func trackNames(events []map[string]any) map[float64]string {
	names := map[float64]string{}
	for _, ev := range events {
		if ev["name"] == "thread_name" {
			names[ev["tid"].(float64)] = ev["args"].(map[string]any)["name"].(string)
		}
	}
	return names
}

// mutatorEventArgs lists the events a mutator thread emits on its own
// track, with the args each must carry.
var mutatorEventArgs = map[string][]string{
	"poison.trap":     {"src_class", "src", "slot"},
	"offload.faultin": {"object", "attempts"},
}

// mutatorEvents groups the trace's mutator events by the name of the track
// they sit on, failing the test if one sits on the gc/stw track or on a
// track no thread_name names, or lacks one of its args.
func mutatorEvents(t *testing.T, events []map[string]any) map[string][]map[string]any {
	t.Helper()
	names := trackNames(events)
	out := map[string][]map[string]any{}
	for _, ev := range events {
		keys, ok := mutatorEventArgs[ev["name"].(string)]
		if !ok {
			continue
		}
		tid := ev["tid"].(float64)
		track, named := names[tid]
		if !named || tid == 0 {
			t.Fatalf("%v sits on track %v, not a mutator thread's named track", ev["name"], tid)
		}
		args, _ := ev["args"].(map[string]any)
		for _, k := range keys {
			if _, ok := args[k]; !ok {
				t.Fatalf("%v on %q lacks arg %q: %v", ev["name"], track, k, ev)
			}
		}
		out[track] = append(out[track], ev)
	}
	return out
}

// wantOneProbeTrap checks a golden trace's only mutator event is the probe
// thread's trap, on the probe's own track.
func wantOneProbeTrap(t *testing.T, events []map[string]any) {
	t.Helper()
	got := mutatorEvents(t, events)
	if len(got) != 1 || len(got["probe"]) != 1 || got["probe"][0]["name"] != "poison.trap" {
		t.Fatalf("mutator events by track = %v, want one poison.trap on the probe's track", got)
	}
}

// TestGoldenTraceDeterminism is the trace stream's golden test: the same
// seedless deterministic workload, run twice, must produce byte-identical
// normalized traces. Wall-clock timing is the only legitimate source of
// nondeterminism in a trace, and normalization removes exactly that — any
// remaining diff is a real ordering bug (a track opened out of emission
// order, an event emitted outside the stop-the-world section it claims).
func TestGoldenTraceDeterminism(t *testing.T) {
	first := goldenTraceRun(t, MarkSTW)
	second := goldenTraceRun(t, MarkSTW)
	if first != second {
		t.Fatalf("traces differ between identical runs:\nrun1 %d bytes\nrun2 %d bytes\n%s",
			len(first), len(second), firstDiff(first, second))
	}

	for _, want := range []string{
		`"gc.mark"`, `"gc.stale"`, `"gc.sweep"`, `"gc.prune"`,
		`"stw.stop"`, `"poison.trap"`,
	} {
		if !strings.Contains(first, want) {
			t.Errorf("trace is missing %s events", want)
		}
	}
	events := parseTraceJSON(t, []byte(first))
	wantOneProbeTrap(t, events)
	if len(events) < 10 {
		t.Fatalf("implausibly small trace: %d events", len(events))
	}
	for i, ev := range events {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d lacks %q: %v", i, key, ev)
			}
		}
	}
}

// TestGoldenTraceDeterminismConcurrent extends the golden test to the
// mostly-concurrent mark mode. The trace legitimately differs from the STW
// stream in span structure (gc.mark.concurrent and gc.remark spans, three
// stw.stop sections per ModeNormal cycle), but the single-threaded workload
// is still fully deterministic, so two identical runs must produce
// byte-identical normalized traces — any diff means the concurrent driver
// leaked real scheduling nondeterminism into what the collector observed.
func TestGoldenTraceDeterminismConcurrent(t *testing.T) {
	first := goldenTraceRun(t, MarkConcurrent)
	second := goldenTraceRun(t, MarkConcurrent)
	if first != second {
		t.Fatalf("concurrent-mark traces differ between identical runs:\nrun1 %d bytes\nrun2 %d bytes\n%s",
			len(first), len(second), firstDiff(first, second))
	}
	for _, want := range []string{
		`"gc.mark.concurrent"`, `"gc.remark"`, `"gc.sweep"`, `"gc.prune"`,
		`"stw.stop"`, `"poison.trap"`,
	} {
		if !strings.Contains(first, want) {
			t.Errorf("concurrent trace is missing %s events", want)
		}
	}
	if strings.Contains(first, `"degraded":"true"`) {
		t.Error("trace reports a degraded remark with no fault armed")
	}
	wantOneProbeTrap(t, parseTraceJSON(t, []byte(first)))
}

// loadPoisoned poisons a fresh edge by hand, as a PRUNE collection would,
// and loads through it, so th traps with an InternalError.
func loadPoisoned(v *VM, th *Thread, node heap.ClassID) {
	a := th.New(node)
	b := th.New(node)
	th.Store(a, 0, b)
	v.heap.Get(a).SetRef(0, b.WithPoison())
	th.Load(a, 0)
}

// TestPoisonTrapTracedAtOnce: a trap is in the trace as soon as it happens,
// on a track named after the trapping thread, with no exit and no
// collection to carry it there. The thread made first never emits, so it
// never gets a track: the trapping thread's track is tid 1, because tids
// follow first emission, not creation.
func TestPoisonTrapTracedAtOnce(t *testing.T) {
	o := obs.New()
	v := newVM(t, Options{EnableBarriers: true, Obs: o})
	node := v.DefineClass("Node", 1, 0)
	idle := v.NewThread("idle")
	defer idle.Exit()
	th := v.NewThread("stranded")
	defer th.Exit()
	th.PushFrame(0)
	cycles := v.collector.Index()
	var ie *vmerrors.InternalError
	if err := vmerrors.Handle(catch(func() { loadPoisoned(v, th, node) }), nil); !errors.As(err, &ie) {
		t.Fatalf("Load of a poisoned reference: %v, want InternalError", err)
	}
	if v.collector.Index() != cycles {
		t.Fatal("the VM collected: the test no longer shows the trap reaching the trace on its own")
	}

	events := exportTrace(t, o.Tracer())
	got := mutatorEvents(t, events)
	if len(got) != 1 || len(got["stranded"]) != 1 || got["stranded"][0]["name"] != "poison.trap" {
		t.Fatalf("mutator events by track = %v, want one poison.trap on the stranded thread's track", got)
	}
	if tid := got["stranded"][0]["tid"].(float64); tid != 1 {
		t.Errorf("the trap sits on tid %v, want 1 (the first thread to emit)", tid)
	}
	for _, name := range trackNames(events) {
		if name == "idle" {
			t.Error("a thread that never emitted has a track")
		}
	}
}

// TestConcurrentTrapsOwnTracks: threads that trap at the same time each get
// a track of their own, named after them, holding exactly their trap.
func TestConcurrentTrapsOwnTracks(t *testing.T) {
	o := obs.New()
	v := newVM(t, Options{EnableBarriers: true, Obs: o})
	node := v.DefineClass("Node", 1, 0)
	const threads = 8
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = v.RunThread(fmt.Sprintf("trapper-%d", i), func(th *Thread) { loadPoisoned(v, th, node) })
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		var ie *vmerrors.InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("trapper-%d: %v, want InternalError", i, err)
		}
	}

	events := exportTrace(t, o.Tracer())
	got := mutatorEvents(t, events)
	tids := map[float64]bool{}
	for i := 0; i < threads; i++ {
		track := got[fmt.Sprintf("trapper-%d", i)]
		if len(track) != 1 || track[0]["name"] != "poison.trap" {
			t.Fatalf("trapper-%d's track holds %v, want its one poison.trap", i, track)
		}
		tids[track[0]["tid"].(float64)] = true
	}
	if len(got) != threads || len(tids) != threads {
		t.Fatalf("%d tracks over %d tids hold mutator events, want %d of each", len(got), len(tids), threads)
	}
}

// TestOffloadFaultInTraced: under the Melt baseline, a fault-in on the
// fast path (the heap has room) is an offload.faultin instant on the
// faulting thread's track, carrying the object and the read attempts.
func TestOffloadFaultInTraced(t *testing.T) {
	o := obs.New()
	v := New(Options{HeapLimit: 1 << 20, EnableBarriers: true, GCWorkers: 1, OffloadDisk: 1 << 20, Obs: o})
	node := v.DefineClass("Node", 1, 128)
	var id heap.ObjectID
	err := v.RunThread("reader", func(th *Thread) {
		a := th.New(node)
		id = a.ID()
		if err := v.heap.Offload(id); err != nil {
			t.Fatal(err)
		}
		th.Load(a, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	got := mutatorEvents(t, exportTrace(t, o.Tracer()))
	track := got["reader"]
	if len(got) != 1 || len(track) != 1 || track[0]["name"] != "offload.faultin" {
		t.Fatalf("mutator events by track = %v, want one offload.faultin on the reader's track", got)
	}
	args := track[0]["args"].(map[string]any)
	if args["object"].(float64) != float64(id) || args["attempts"].(float64) != 1 {
		t.Fatalf("offload.faultin args = %v, want object %d after 1 attempt", args, id)
	}
}

// firstDiff renders the first line where a and b diverge.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return "first diff at line " + la[i] + "\nvs " + lb[i]
		}
	}
	return "traces are prefixes of each other"
}

// TestDisabledObsLoadZeroAlloc pins the disabled-path contract from the
// Options.Obs doc: with no observability attached, the mutator Load fast
// path allocates nothing — the instrumentation reduces to nil checks on
// handles that were never created.
func TestDisabledObsLoadZeroAlloc(t *testing.T) {
	v := New(Options{HeapLimit: 1 << 20, GCWorkers: 1})
	node := v.DefineClass("Node", 1, 0)
	err := v.RunThread("main", func(th *Thread) {
		a := th.New(node)
		b := th.New(node)
		th.Store(a, 0, b)
		th.Load(a, 0) // warm
		if allocs := testing.AllocsPerRun(200, func() {
			th.Load(a, 0)
		}); allocs != 0 {
			t.Errorf("obs-disabled Load allocates %.1f objects per op, want 0", allocs)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIdleThreadObsFootprint: a thread that records no trace event costs
// the observability layer nothing. An eventless RunThread allocates the
// same bytes and objects with Obs attached as without, and adds no sink
// record.
func TestIdleThreadObsFootprint(t *testing.T) {
	// footprint returns the least per-RunThread bytes and allocations over
	// three rounds, so a stray runtime allocation cannot tip the comparison.
	footprint := func(o *obs.Obs) (bytes, allocs uint64) {
		v := New(Options{HeapLimit: 1 << 20, GCWorkers: 1, Obs: o})
		run := func() {
			if err := v.RunThread("request", func(*Thread) {}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm
		const runs = 64
		bytes, allocs = math.MaxUint64, math.MaxUint64
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
			allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
		}
		return bytes, allocs
	}
	o := obs.New()
	sinkBefore := o.Tracer().Len()
	onBytes, onAllocs := footprint(o)
	offBytes, offAllocs := footprint(nil)
	if onBytes != offBytes || onAllocs != offAllocs {
		t.Errorf("an eventless RunThread costs %d B / %d allocs with Obs on, %d B / %d allocs without",
			onBytes, onAllocs, offBytes, offAllocs)
	}
	if grew := o.Tracer().Len() - sinkBefore; grew != 0 {
		t.Errorf("eventless threads added %d sink events", grew)
	}
}
