package harness

import (
	"errors"
	"testing"
	"time"

	"leakpruning/internal/vm"
	"leakpruning/internal/vmerrors"
)

func TestPolicyFromName(t *testing.T) {
	for _, name := range []string{"", "off", "base", "none"} {
		p, err := PolicyFromName(name)
		if err != nil || p != nil {
			t.Fatalf("PolicyFromName(%q) = %v, %v", name, p, err)
		}
	}
	for _, name := range []string{"default", "most-stale", "indiv-refs"} {
		p, err := PolicyFromName(name)
		if err != nil || p == nil {
			t.Fatalf("PolicyFromName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := PolicyFromName("nope"); err == nil {
		t.Fatal("unknown policy must error")
	}
}

func TestRunUnknownProgram(t *testing.T) {
	if _, err := Run(Config{Program: "nope"}); err == nil {
		t.Fatal("unknown program must error")
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(Config{Program: "listleak", ForceState: "bogus"}); err == nil {
		t.Fatal("bad forced state must error")
	}
	if _, err := Run(Config{Program: "listleak", BarrierVariant: "bogus"}); err == nil {
		t.Fatal("bad barrier variant must error")
	}
	// Combinations each field allows but the VM does not: the typed error
	// comes back, vm.New's configuration panic is never reached.
	for name, cfg := range map[string]Config{
		"melt+concurrent":     {Program: "listleak", Policy: "melt", MarkMode: "concurrent"},
		"forced state+policy": {Program: "listleak", Policy: "default", ForceState: "select"},
		"barriers off+policy": {Program: "listleak", Policy: "default", BarriersOff: true},
	} {
		_, err := Run(cfg)
		var oe *vm.OptionError
		if !errors.As(err, &oe) {
			t.Errorf("%s: error %v, want a *vm.OptionError", name, err)
		}
	}
}

func TestRunReasonClassification(t *testing.T) {
	// Base ListLeak: OOM with a recorded error.
	res, err := Run(Config{Program: "listleak", Policy: "off", MaxIters: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != EndOOM || !vmerrors.IsOOM(res.Err) {
		t.Fatalf("reason=%s err=%v", res.Reason, res.Err)
	}
	if res.Capped() {
		t.Fatal("an OOM run is not capped")
	}

	// Delaunay completes.
	res, err = Run(Config{Program: "delaunay", Policy: "off"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != EndCompleted || res.Err != nil {
		t.Fatalf("delaunay: %s / %v", res.Reason, res.Err)
	}

	// Iteration cap.
	res, err = Run(Config{Program: "listleak", Policy: "off", MaxIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != EndIterCap || !res.Capped() {
		t.Fatalf("capped run: %s", res.Reason)
	}

	// Time cap.
	res, err = Run(Config{Program: "listleak", Policy: "off", MaxIters: 1 << 30, MaxDuration: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != EndTimeCap {
		t.Fatalf("time-capped run: %s", res.Reason)
	}
}

func TestRunRecordsSeries(t *testing.T) {
	res, err := Run(Config{Program: "listleak", Policy: "default", MaxIters: 800, RecordIterTimes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GCSamples) == 0 {
		t.Fatal("no reachable-memory samples recorded")
	}
	for i := 1; i < len(res.GCSamples); i++ {
		if res.GCSamples[i].GCIndex <= res.GCSamples[i-1].GCIndex {
			t.Fatal("GC samples out of order")
		}
		if res.GCSamples[i].BytesLive > res.HeapLimit {
			t.Fatal("reachable memory above the heap limit")
		}
	}
	if len(res.IterTimes) != res.Iterations {
		t.Fatalf("iteration times %d != iterations %d", len(res.IterTimes), res.Iterations)
	}
	if res.VMStats.Collections == 0 || res.VMStats.Allocations == 0 {
		t.Fatal("VM stats empty")
	}
}

func TestRatioAndDescribe(t *testing.T) {
	base := Result{Iterations: 100}
	r := Result{Program: "p", Policy: "default", Iterations: 450, Reason: EndOOM, Duration: time.Second}
	if r.Ratio(base) != 4.5 {
		t.Fatalf("ratio = %v", r.Ratio(base))
	}
	if (Result{}).Ratio(Result{}) != 0 {
		t.Fatal("zero-base ratio must be 0")
	}
	if r.Describe() == "" {
		t.Fatal("empty Describe")
	}
}

func TestVerboseCallback(t *testing.T) {
	var lines int
	_, err := Run(Config{
		Program: "listleak", Policy: "default", MaxIters: 800,
		Verbose: func(string, ...any) { lines++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("verbose run produced no prune/OOM events")
	}
}
