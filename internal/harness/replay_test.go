package harness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"leakpruning/internal/trace"
	"leakpruning/internal/vm"
	"leakpruning/internal/workload"
)

// microLeaks are the §6 micro-leak workloads the fault matrix and the replay
// oracles run.
var microLeaks = []string{"listleak", "swapleak", "dualleak"}

// recordRun records one workload run and returns the parsed trace plus the
// recording run's result.
func recordRun(t *testing.T, cfg Config) (*trace.Trace, Result) {
	t.Helper()
	rec := trace.NewRecorder()
	cfg.Record = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatalf("serialize trace: %v", err)
	}
	tr, err := trace.ReadTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("parse trace: %v", err)
	}
	return tr, res
}

// TestReplayDeterminism: a ×1 replay of a recorded micro-leak run under
// the recorded options reproduces every GC cycle's live-set hash,
// candidate count, and pruned count byte-identically, in both mark modes.
func TestReplayDeterminism(t *testing.T) {
	for _, markMode := range []string{"stw", "concurrent"} {
		t.Run(markMode, func(t *testing.T) {
			tr, rres := recordRun(t, Config{
				Program:     "listleak",
				Policy:      "default",
				MaxIters:    900,
				MarkMode:    markMode,
				HashLiveSet: true,
			})
			if len(tr.Classes) == 0 || len(tr.Threads) == 0 {
				t.Fatalf("trace missing header tables: %d classes, %d threads", len(tr.Classes), len(tr.Threads))
			}
			rr, err := Replay(ReplayConfig{Trace: tr})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if err := CompareCycles(tr, rr.GCSamples); err != nil {
				t.Fatalf("×1 replay diverged from recording: %v", err)
			}
			// A replay that consumes the whole trace ends "completed"; the
			// recorded run may have ended at its iteration cap — both are
			// healthy. A died run must die the same way in replay.
			if rres.Capped() {
				if !(Result{Reason: rr.Clones[0].Reason}).Capped() {
					t.Errorf("recorded run ended healthy (%v), replay died: %v (%v)",
						rres.Reason, rr.Clones[0].Reason, rr.Clones[0].Err)
				}
			} else if got, want := rr.Clones[0].Reason, rres.Reason; got != want {
				t.Errorf("clone end reason %v, recorded run ended %v", got, want)
			}
			if rr.Clones[0].Skipped != 0 {
				t.Errorf("single-threaded replay skipped %d events", rr.Clones[0].Skipped)
			}
			if len(rr.AuditReport) != 0 {
				t.Errorf("final audit violations: %v", rr.AuditReport)
			}
		})
	}
}

// TestReplayEquivalence: a recording of each micro-leak made under STW
// marking replays byte-identically under concurrent marking, audit-clean —
// the trace is a policy-validation substrate precisely because the mark
// mode does not change the heap's evolution.
func TestReplayEquivalence(t *testing.T) {
	for _, program := range microLeaks {
		t.Run(program, func(t *testing.T) {
			tr, rres := recordRun(t, Config{
				Program:     program,
				Policy:      "default",
				HeapLimit:   matrixHeap,
				MaxIters:    900,
				HashLiveSet: true,
			})
			rr, err := Replay(ReplayConfig{Trace: tr, MarkMode: "concurrent", AuditEveryGC: true})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if len(rr.GCSamples) == 0 {
				t.Fatal("replay ran no collections; the oracle is vacuous")
			}
			if err := CompareCycles(tr, rr.GCSamples); err != nil {
				t.Fatalf("replay under concurrent marking diverged: %v", err)
			}
			if !rr.Capped() && rr.Clones[0].Reason != rres.Reason {
				t.Errorf("replay ended %v, recording ended %v", rr.Clones[0].Reason, rres.Reason)
			}
			if rr.VMStats.AuditsRun == 0 || rr.VMStats.AuditViolations != 0 || len(rr.AuditReport) != 0 {
				t.Errorf("%d audits, %d violations, final audit: %v",
					rr.VMStats.AuditsRun, rr.VMStats.AuditViolations, rr.AuditReport)
			}
		})
	}
}

// TestReplayRejectsInvalidOverride: an override the recorded options cannot
// take — concurrent marking over a disk-offloading recording — is the typed
// option error, not vm.New's panic.
func TestReplayRejectsInvalidOverride(t *testing.T) {
	tr, _ := recordRun(t, Config{Program: "listleak", Policy: "melt", MaxIters: 50})
	_, err := Replay(ReplayConfig{Trace: tr, MarkMode: "concurrent"})
	var oe *vm.OptionError
	if !errors.As(err, &oe) {
		t.Fatalf("replay error %v, want a *vm.OptionError", err)
	}
}

// TestReplayRejectsUnknownFlags: a recording with a flag bit replay does not
// apply — a reserved one, or one from a newer recorder — is refused before a
// VM is built, instead of replaying as a different program.
func TestReplayRejectsUnknownFlags(t *testing.T) {
	tr, _ := recordRun(t, Config{Program: "listleak", Policy: "default", MaxIters: 10})
	for _, tc := range []struct {
		name string
		flag uint64
	}{
		{"generational", trace.FlagGenerational},
		{"lazy-barriers", trace.FlagLazyBarriers},
		{"bit-40", 1 << 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := *tr
			bad.Meta.Flags |= tc.flag
			_, err := Replay(ReplayConfig{Trace: &bad})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%#x", tc.flag)) {
				t.Fatalf("replay with flag %#x: err %v, want it refused naming the bit", tc.flag, err)
			}
		})
	}
}

// TestReplayAcceptsKnownFlags is the other side of that gate: every flag bit
// a recorder sets is one replay applies, so a recording made with it
// replays ×1 cycle-exactly instead of being refused.
func TestReplayAcceptsKnownFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		flag uint64
	}{
		{"hash-live-set", Config{Policy: "default"}, trace.FlagHashLiveSet},
		{"full-heap-only", Config{Policy: "default", FullHeapOnly: true}, trace.FlagFullHeapOnly},
		{"barriers-off", Config{Policy: "off", BarriersOff: true}, trace.FlagBarriersOff},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Program, cfg.HeapLimit, cfg.MaxIters, cfg.HashLiveSet = "listleak", matrixHeap, 300, true
			tr, _ := recordRun(t, cfg)
			if tr.Meta.Flags&tc.flag == 0 {
				t.Fatalf("recording's flags %#x lack %#x: the case is vacuous", tr.Meta.Flags, tc.flag)
			}
			rr, err := Replay(ReplayConfig{Trace: tr})
			if err != nil {
				t.Fatalf("replay with flags %#x: %v", tr.Meta.Flags, err)
			}
			if len(rr.GCSamples) == 0 {
				t.Fatal("replay ran no collections; the oracle is vacuous")
			}
			if err := CompareCycles(tr, rr.GCSamples); err != nil {
				t.Fatalf("×1 replay with flags %#x diverged: %v", tr.Meta.Flags, err)
			}
		})
	}
}

// TestReplayReproducesDeath: runs that die — by poison trap (most-stale
// pruning a live structure) or by OOM (pruning off) — die the same way at
// ×1 replay, because the trace records the trapping load and the
// exhausting allocation as its final events.
func TestReplayReproducesDeath(t *testing.T) {
	for _, tc := range []struct {
		name    string
		program string
		policy  string
		want    EndReason
	}{
		{"poison-trap", "eclipsecp", "indiv-refs", EndPoisonTrap},
		{"oom", "listleak", "off", EndOOM},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, rres := recordRun(t, Config{
				Program:     tc.program,
				Policy:      tc.policy,
				MaxIters:    400,
				HashLiveSet: true,
			})
			if rres.Reason != tc.want {
				t.Fatalf("recorded run ended %v, want %v", rres.Reason, tc.want)
			}
			rr, err := Replay(ReplayConfig{Trace: tr})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if got := rr.Clones[0].Reason; got != tc.want {
				t.Fatalf("replay ended %v (%v), recorded run ended %v",
					got, rr.Clones[0].Err, tc.want)
			}
			if err := CompareCycles(tr, rr.GCSamples); err != nil {
				t.Fatalf("replay diverged before death: %v", err)
			}
		})
	}
}

// TestReplayCrossPolicy: a recording made under one policy replays cleanly
// under the others; outcomes differ (that is the point) but the heap stays
// audit-clean.
func TestReplayCrossPolicy(t *testing.T) {
	tr, _ := recordRun(t, Config{
		Program:  "listleak",
		Policy:   "off",
		MaxIters: 600,
	})
	for _, policy := range []string{"default", "most-stale", "indiv-refs"} {
		t.Run(policy, func(t *testing.T) {
			rr, err := Replay(ReplayConfig{Trace: tr, Policy: policy})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if len(rr.AuditReport) != 0 {
				t.Errorf("audit violations under %s: %v", policy, rr.AuditReport)
			}
			if rr.Clones[0].Reason == EndReplayDiverged || rr.Clones[0].Reason == EndTraceCorrupt {
				t.Errorf("replay failed structurally: %v (%v)", rr.Clones[0].Reason, rr.Clones[0].Err)
			}
		})
	}
}

// TestReplayMultiply: a ×4 thread-multiplied replay of each micro-leak
// completes with zero audit violations and every clone makes progress.
func TestReplayMultiply(t *testing.T) {
	for _, program := range microLeaks {
		t.Run(program, func(t *testing.T) {
			tr, _ := recordRun(t, Config{
				Program:   program,
				Policy:    "default",
				HeapLimit: matrixHeap,
				MaxIters:  400,
			})
			rr, err := Replay(ReplayConfig{Trace: tr, Multiply: 4, AuditEveryGC: true})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if rr.VMStats.AuditViolations != 0 || len(rr.AuditReport) != 0 {
				t.Errorf("%d audit violations, final audit: %v", rr.VMStats.AuditViolations, rr.AuditReport)
			}
			for _, c := range rr.Clones {
				if c.Iterations == 0 {
					t.Errorf("clone %d made no progress: %v (%v)", c.Clone, c.Reason, c.Err)
				}
				if c.Reason == EndReplayDiverged || c.Reason == EndTraceCorrupt {
					t.Errorf("clone %d failed structurally: %v (%v)", c.Clone, c.Reason, c.Err)
				}
			}
		})
	}
}

// TestReplayCorpusMultiply is the corpus acceptance gate: a ×10
// thread-multiplied replay of each taxonomy corpus program completes with
// zero audit violations under all three pruning policies. Recording is done
// under "off" so every policy replays the same heap evolution.
func TestReplayCorpusMultiply(t *testing.T) {
	for _, e := range workload.Corpus() {
		tr, _ := recordRun(t, Config{Program: e.Name, Policy: "off", MaxIters: 400})
		if n := framelessAllocs(t, tr); n != 0 {
			t.Errorf("%s: %d allocations outside any frame: unrooted until the program stores them, "+
				"so a multiplied replay can collect them first", e.Name, n)
		}
		for _, policy := range []string{"default", "most-stale", "indiv-refs"} {
			t.Run(e.Name+"/"+policy, func(t *testing.T) {
				rr, err := Replay(ReplayConfig{Trace: tr, Policy: policy, Multiply: 10})
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				if len(rr.AuditReport) != 0 {
					t.Errorf("audit violations: %v", rr.AuditReport)
				}
				for _, c := range rr.Clones {
					if c.Reason == EndReplayDiverged || c.Reason == EndTraceCorrupt {
						t.Errorf("clone %d failed structurally: %v (%v)", c.Clone, c.Reason, c.Err)
					}
					if c.Iterations == 0 {
						t.Errorf("clone %d made no progress: %v (%v)", c.Clone, c.Reason, c.Err)
					}
				}
			})
		}
	}
}

// framelessAllocs counts the recorded allocations made while their thread
// had no frame pushed. Nothing roots such an object until the program
// stores it somewhere; the recording survives that (one driver, no
// collection in between), a ×N replay does not — another clone can trigger
// a collection inside the window.
func framelessAllocs(t *testing.T, tr *trace.Trace) int {
	t.Helper()
	depth := map[int]int{}
	n := 0
	it := tr.Iter()
	var ev trace.Event
	for {
		ok, err := it.Next(&ev)
		if err != nil {
			t.Fatalf("decode trace: %v", err)
		}
		if !ok {
			return n
		}
		switch ev.Kind {
		case trace.EvPush:
			depth[ev.Stream]++
		case trace.EvPop:
			depth[ev.Stream]--
		case trace.EvAlloc, trace.EvAllocShaped:
			if depth[ev.Stream] == 0 {
				n++
			}
		}
	}
}
