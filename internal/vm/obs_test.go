package vm

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"leakpruning/internal/core"
	"leakpruning/internal/obs"
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
	o.Tracer().DrainAll()
	var buf bytes.Buffer
	if err := o.Tracer().WriteTrace(&buf, true); err != nil {
		t.Fatalf("mark %v: WriteTrace: %v", mark, err)
	}
	return buf.String()
}

// TestGoldenTraceDeterminism is the trace stream's golden test: the same
// seedless deterministic workload, run twice, must produce byte-identical
// normalized traces. Wall-clock timing is the only legitimate source of
// nondeterminism in a trace, and normalization removes exactly that — any
// remaining diff is a real ordering bug (a ring drained out of tid order, an
// event emitted outside the stop-the-world section it claims).
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
	var events []map[string]any
	if err := json.Unmarshal([]byte(first), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
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
// the observability layer neither a ring buffer (a full 4096-event ring is
// ~860 KB) nor a sink event.
func TestIdleThreadObsFootprint(t *testing.T) {
	o := obs.New()
	v := New(Options{HeapLimit: 1 << 20, GCWorkers: 1, Obs: o})
	run := func() {
		if err := v.RunThread("request", func(*Thread) {}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm
	sinkBefore := o.Tracer().Len()
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 8<<10 {
		t.Errorf("an eventless RunThread allocates %d bytes with Obs on, want < 8 KiB", per)
	}
	if grew := o.Tracer().Len() - sinkBefore; grew != 0 {
		t.Errorf("%d eventless threads added %d sink events", runs, grew)
	}
}
