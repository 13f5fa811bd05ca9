package vm

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"leakpruning/internal/core"
	"leakpruning/internal/faultinject"
	"leakpruning/internal/heap"
	"leakpruning/internal/vmerrors"
)

// --- Options validation (every branch, typed errors) ---

func TestOptionsValidateTable(t *testing.T) {
	valid := Options{HeapLimit: 1 << 20, GCWorkers: 1, EnableBarriers: true}
	cases := []struct {
		name   string
		mutate func(*Options)
		option string // expected OptionError.Option; "" means valid
	}{
		{"zero-value defaults", func(o *Options) { o.EnableBarriers = false }, ""},
		{"valid pruning config", func(o *Options) { o.Policy = core.DefaultPolicy{} }, ""},
		{"valid offload config", func(o *Options) { o.OffloadDisk = 1 << 20 }, ""},
		{"fractions in range", func(o *Options) {
			o.Policy = core.DefaultPolicy{}
			o.NearlyFullFraction = 0.9
		}, ""},
		{"policy without barriers", func(o *Options) {
			o.Policy = core.DefaultPolicy{}
			o.EnableBarriers = false
		}, "Policy+EnableBarriers"},
		{"forced with policy", func(o *Options) {
			o.Policy = core.DefaultPolicy{}
			o.Forced = true
		}, "Forced+Policy"},
		{"offload with policy", func(o *Options) {
			o.OffloadDisk = 1 << 20
			o.Policy = core.DefaultPolicy{}
		}, "OffloadDisk+Policy"},
		{"offload without barriers", func(o *Options) {
			o.OffloadDisk = 1 << 20
			o.EnableBarriers = false
		}, "OffloadDisk+EnableBarriers"},
		{"offload with forced", func(o *Options) {
			o.OffloadDisk = 1 << 20
			o.Forced = true
		}, "OffloadDisk+Forced"},
		{"NaN NearlyFullFraction", func(o *Options) { o.NearlyFullFraction = math.NaN() }, "NearlyFullFraction"},
		{"negative NearlyFullFraction", func(o *Options) { o.NearlyFullFraction = -1 }, "NearlyFullFraction"},
		{"NearlyFullFraction exactly one", func(o *Options) { o.NearlyFullFraction = 1.0 }, "NearlyFullFraction"},
		{"NearlyFullFraction above one", func(o *Options) { o.NearlyFullFraction = 2.5 }, "NearlyFullFraction"},
		{"negative GCWorkers", func(o *Options) { o.GCWorkers = -2 }, "GCWorkers"},
		{"negative STWWatchdog", func(o *Options) { o.STWWatchdog = -time.Second }, "STWWatchdog"},
		{"forced observe", func(o *Options) { o.Forced, o.ForceState = true, core.StateObserve }, ""},
		{"forced select", func(o *Options) { o.Forced, o.ForceState = true, core.StateSelect }, ""},
		{"forced prune", func(o *Options) { o.Forced, o.ForceState = true, core.StatePrune }, "ForceState"},
		{"forced unknown state", func(o *Options) { o.Forced, o.ForceState = true, core.State(7) }, "ForceState"},
		{"negative force state", func(o *Options) { o.ForceState = -1 }, "ForceState"},
		{"unconditional barrier", func(o *Options) { o.Barrier = BarrierUnconditional }, ""},
		{"unknown barrier", func(o *Options) { o.Barrier = BarrierVariant(2) }, "Barrier"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := valid
			tc.mutate(&o)
			err := o.validate()
			if tc.option == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("validate() = %v (%T), want *OptionError", err, err)
			}
			if oe.Option != tc.option {
				t.Fatalf("OptionError.Option = %q, want %q (err: %v)", oe.Option, tc.option, oe)
			}
		})
	}
}

// TestSetModes: the policy and mark-mode names the harness and leakd share
// decide Policy, OffloadDisk and MarkMode, and nothing else.
func TestSetModes(t *testing.T) {
	for _, name := range []string{"", "off", "base", "none"} {
		o := Options{HeapLimit: 1 << 20, Policy: core.DefaultPolicy{}, OffloadDisk: 1}
		if err := o.SetModes(name, ""); err != nil || o.Policy != nil || o.OffloadDisk != 0 {
			t.Fatalf("SetModes(%q) = %v: policy %v, disk %d", name, err, o.Policy, o.OffloadDisk)
		}
		if !NoPolicyName(name) {
			t.Fatalf("NoPolicyName(%q) = false", name)
		}
	}
	for _, name := range []string{"default", "most-stale", "indiv-refs", "decay"} {
		o := Options{HeapLimit: 1 << 20}
		if err := o.SetModes(name, ""); err != nil || o.Policy == nil || o.Policy.Name() != name {
			t.Fatalf("SetModes(%q) = %v: policy %v", name, err, o.Policy)
		}
	}
	o := Options{HeapLimit: 1 << 20}
	if err := o.SetModes("melt", "stw"); err != nil || o.Policy != nil || o.OffloadDisk != 4<<20 || o.MarkMode != MarkSTW {
		t.Fatalf("SetModes(melt, stw) = %v: %+v", err, o)
	}
	if err := o.SetModes("default", "concurrent"); err != nil || o.OffloadDisk != 0 || o.MarkMode != MarkConcurrent {
		t.Fatalf("SetModes(default, concurrent) = %v: %+v", err, o)
	}
	if err := o.SetModes("nope", ""); err == nil || !strings.Contains(err.Error(), `unknown policy "nope"`) {
		t.Fatalf("unknown policy: %v", err)
	}
	var oe *OptionError
	if err := o.SetModes("", "eager"); !errors.As(err, &oe) || oe.Option != "MarkMode" {
		t.Fatalf("unknown mark mode: %v, want *OptionError on MarkMode", err)
	}
}

func TestNewPanicsWithTypedOptionError(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New with invalid options did not panic")
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("panic value %T is not an error", r)
		}
		var oe *OptionError
		if !errors.As(err, &oe) || oe.Option != "NearlyFullFraction" {
			t.Fatalf("panic error = %v, want OptionError on NearlyFullFraction", err)
		}
	}()
	New(Options{EnableBarriers: true, NearlyFullFraction: 7})
}

// --- Satellite 1: pruned-edge record cap ---

func TestPrunedEdgeRecordOverflow(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true})
	v.prunedEdgeCap = 2

	v.recordPrunedEdge(1, 0, 7)
	v.recordPrunedEdge(2, 0, 7)
	v.recordPrunedEdge(3, 0, 7) // over the cap: dropped, counted
	v.recordPrunedEdge(4, 1, 8) // ditto
	v.recordPrunedEdge(1, 0, 9) // existing key: updated, not an overflow

	if got := v.Stats().PrunedEdgeOverflows; got != 2 {
		t.Fatalf("PrunedEdgeOverflows = %d, want 2", got)
	}
	if cls, ok := v.prunedEdgeClass(1, 0); !ok || cls != 9 {
		t.Fatalf("existing record not updated: (%v, %v)", cls, ok)
	}
	if _, ok := v.prunedEdgeClass(3, 0); ok {
		t.Fatal("over-cap record was stored")
	}
	// The trap on a dropped record still works, with the generic label.
	cls := v.DefineClass("Src", 1, 0)
	err := func() (err error) {
		defer func() { err = vmerrors.Handle(recover(), err) }()
		v.throwPoisonTrap(cls, 3, 0)
		return nil
	}()
	var ie *vmerrors.InternalError
	if !errors.As(err, &ie) || ie.TargetClass != "<pruned>" {
		t.Fatalf("trap on dropped record = %v, want InternalError with <pruned> target", err)
	}
}

// --- Satellite 3: finalizer panics and poison-trap storms ---

func TestFinalizerPanicDoesNotAbortCollection(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true})
	cls := v.DefineClass("Obj", 0, 64)
	ran := 0
	err := v.RunThread("main", func(th *Thread) {
		th.Scope(func() {
			for i := 0; i < 10; i++ {
				r := th.New(cls)
				if i == 3 {
					v.SetFinalizer(r, func(FinalizerInfo) { panic("finalizer 3 exploded") })
				} else {
					v.SetFinalizer(r, func(FinalizerInfo) { ran++ })
				}
			}
		})
		v.Collect()
	})
	if err != nil {
		t.Fatalf("RunThread: %v", err)
	}
	if ran != 9 {
		t.Fatalf("%d well-behaved finalizers ran, want 9", ran)
	}
	st := v.Stats()
	if st.FinalizersRun != 10 || st.FinalizerPanics != 1 {
		t.Fatalf("FinalizersRun=%d FinalizerPanics=%d, want 10/1", st.FinalizersRun, st.FinalizerPanics)
	}
	if !strings.Contains(v.LastFinalizerPanic(), "finalizer 3 exploded") {
		t.Fatalf("LastFinalizerPanic = %q", v.LastFinalizerPanic())
	}
	if viol := v.Verify(); len(viol) != 0 {
		t.Fatalf("heap unsound after finalizer panic: %v", viol)
	}
}

func TestInjectedFinalizerPanicStorm(t *testing.T) {
	inj := faultinject.New(21)
	inj.Arm(faultinject.FinalizerPanic, 1.0)
	v := newVM(t, Options{EnableBarriers: true, FaultInjector: inj})
	cls := v.DefineClass("Obj", 0, 64)
	err := v.RunThread("main", func(th *Thread) {
		th.Scope(func() {
			for i := 0; i < 50; i++ {
				v.SetFinalizer(th.New(cls), func(FinalizerInfo) {})
			}
		})
		v.Collect()
		// The VM survives the storm: allocation and collection still work.
		th.New(cls)
		v.Collect()
	})
	if err != nil {
		t.Fatalf("RunThread: %v", err)
	}
	st := v.Stats()
	if st.FinalizerPanics != 50 {
		t.Fatalf("FinalizerPanics = %d, want 50", st.FinalizerPanics)
	}
	if viol := v.Verify(); len(viol) != 0 {
		t.Fatalf("heap unsound after finalizer panic storm: %v", viol)
	}
}

// leakClasses is the standard Holder/Payload leak shape used across these
// tests: a global chain of holders grows while scratch allocations force
// collections, so chain interiors go stale and the policy prunes them.
type leakClasses struct {
	holder, payload, scratch heap.ClassID
}

func defineLeakClasses(v *VM) leakClasses {
	return leakClasses{
		holder:  v.DefineClass("Holder", 2, 0),
		payload: v.DefineClass("Payload", 1, 2048),
		scratch: v.DefineClass("Scratch", 0, 64),
	}
}

func leakDriver(v *VM, c leakClasses, g int, iters int) error {
	return leakDriverWith(v, c, g, iters, func(heap.Ref) {})
}

// leakDriverWith is leakDriver with a hook called on every payload as it is
// allocated.
func leakDriverWith(v *VM, c leakClasses, g int, iters int, onPayload func(heap.Ref)) error {
	return v.RunThread("leaker", func(th *Thread) {
		for i := 0; i < iters; i++ {
			th.Scope(func() {
				h := th.New(c.holder)
				payload := th.New(c.payload)
				onPayload(payload)
				th.Store(h, 0, payload)
				th.Store(h, 1, th.LoadGlobal(g))
				th.StoreGlobal(g, h)
				for j := 0; j < 4; j++ {
					th.New(c.scratch)
				}
			})
		}
	})
}

func TestPoisonTrapStorm(t *testing.T) {
	v := New(Options{
		HeapLimit:      256 << 10,
		EnableBarriers: true,
		GCWorkers:      1,
		Policy:         core.DefaultPolicy{},
	})
	lc := defineLeakClasses(v)
	g := v.AddGlobal()
	if err := leakDriver(v, lc, g, 1200); err != nil {
		t.Fatalf("leak driver died: %v", err)
	}
	if v.Stats().PrunedRefs == 0 {
		t.Fatal("leak driver never pruned; storm has nothing to hit")
	}

	// Storm: concurrent walkers chase the global chain into the poisoned
	// region. Every walker must die with a typed InternalError — never a
	// raw panic — and the heap must stay sound throughout.
	const walkers = 4
	errs := make(chan error, walkers)
	for w := 0; w < walkers; w++ {
		go func(w int) {
			errs <- v.RunThread(fmt.Sprintf("storm-%d", w), func(th *Thread) {
				for i := 0; i < 100000; i++ {
					th.Scope(func() {
						h := th.LoadGlobal(g)
						for !h.IsNull() {
							h = th.Load(h, 1)
						}
					})
				}
			})
		}(w)
	}
	for w := 0; w < walkers; w++ {
		err := <-errs
		var ie *vmerrors.InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("walker returned %v, want InternalError", err)
		}
		if ie.Cause == nil {
			t.Fatal("poison trap lost its averted-OOM cause")
		}
	}
	if got := v.Stats().PoisonTraps; got < walkers {
		t.Fatalf("PoisonTraps = %d, want at least %d", got, walkers)
	}
	if viol := v.Verify(); len(viol) != 0 {
		t.Fatalf("heap unsound after poison-trap storm: %v", viol)
	}
}

// --- The invariant auditor itself ---

func TestVerifyCleanAndDetectsPlantedDamage(t *testing.T) {
	v := newVM(t, Options{EnableBarriers: true})
	cls := v.DefineClass("Pair", 2, 0)
	g := v.AddGlobal()
	var victim heap.ObjectID
	err := v.RunThread("main", func(th *Thread) {
		a := th.New(cls)
		b := th.New(cls)
		th.Store(a, 0, b)
		th.StoreGlobal(g, a)
		victim = b.ID()
	})
	if err != nil {
		t.Fatal(err)
	}
	if viol := v.Verify(); len(viol) != 0 {
		t.Fatalf("clean VM failed audit: %v", viol)
	}
	if v.LastAudit() == nil {
		t.Fatal("LastAudit nil after a clean audit")
	}
	if v.FirstFailedAudit() != nil {
		t.Fatal("FirstFailedAudit non-nil after clean audits")
	}

	// Plant a use-after-free: free the referenced object behind the VM's
	// back. The audit must flag both the dangling slot and the root path.
	v.heap.FreeBatch([]heap.ObjectID{victim})
	viol := v.Verify()
	joined := strings.Join(viol, "\n")
	if !strings.Contains(joined, "dangling") {
		t.Fatalf("audit missed dangling reference: %v", viol)
	}
	if !strings.Contains(joined, "reachable from") {
		t.Fatalf("audit missed freed-slot reachability: %v", viol)
	}
	st := v.Stats()
	if st.AuditsRun != 2 || st.AuditViolations == 0 {
		t.Fatalf("AuditsRun=%d AuditViolations=%d", st.AuditsRun, st.AuditViolations)
	}

	// Mend the damage: the next audit is clean, and the first failing
	// report is still the one that found it.
	err = v.RunThread("main", func(th *Thread) { th.Store(th.LoadGlobal(g), 0, heap.Null) })
	if err != nil {
		t.Fatal(err)
	}
	if again := v.Verify(); len(again) != 0 {
		t.Fatalf("audit after mending: %v", again)
	}
	if last, first := v.LastAudit(), v.FirstFailedAudit(); len(last) != 0 || strings.Join(first, "\n") != joined {
		t.Fatalf("LastAudit %v, FirstFailedAudit %v; want empty and %v", last, first, viol)
	}
	if got := auditSummary(v.FirstFailedAudit()); !strings.Contains(got, "1× object N slot N holds un-poisoned dangling reference to freed slot N") {
		t.Fatalf("auditSummary = %q", got)
	}
}

// auditSummary prints an audit report as its distinct messages, numbers
// masked, each with how often it occurs, most frequent first: a failure
// that repeats over thousands of slots reads as one line with its count.
func auditSummary(report []string) string {
	if report == nil {
		return "none"
	}
	digits := regexp.MustCompile(`[0-9]+`)
	counts := map[string]int{}
	var msgs []string
	for _, msg := range report {
		msg = digits.ReplaceAllString(msg, "N")
		if counts[msg]++; counts[msg] == 1 {
			msgs = append(msgs, msg)
		}
	}
	slices.SortFunc(msgs, func(a, b string) int {
		return cmp.Or(counts[b]-counts[a], strings.Compare(a, b))
	})
	var b strings.Builder
	for _, msg := range msgs {
		fmt.Fprintf(&b, "\n\t%d× %s", counts[msg], msg)
	}
	return b.String()
}

func TestAuditEveryGCStaysClean(t *testing.T) {
	v := New(Options{
		HeapLimit:      256 << 10,
		EnableBarriers: true,
		GCWorkers:      1,
		Policy:         core.DefaultPolicy{},
		AuditEveryGC:   true,
	})
	lc := defineLeakClasses(v)
	g := v.AddGlobal()
	if err := leakDriver(v, lc, g, 1200); err != nil {
		t.Fatalf("leak driver died: %v", err)
	}
	st := v.Stats()
	if st.Collections == 0 || st.AuditsRun < st.Collections {
		t.Fatalf("audits %d < collections %d", st.AuditsRun, st.Collections)
	}
	if st.AuditViolations != 0 {
		t.Fatalf("AuditEveryGC found %d violations; the first failing audit: %s", st.AuditViolations, auditSummary(v.FirstFailedAudit()))
	}
	if st.PrunedRefs == 0 {
		t.Fatal("leak run never pruned (audit would have missed the interesting states)")
	}
}

// --- End-to-end degradation under injected faults ---

func TestEndToEndChaosSmoke(t *testing.T) {
	inj := faultinject.New(123)
	inj.Arm(faultinject.TraceWorkerPanic, 0.02)
	inj.Arm(faultinject.FinalizerPanic, 0.1)
	inj.Arm(faultinject.ShardFreeListCorruption, 0.01)
	v := New(Options{
		HeapLimit:      256 << 10,
		EnableBarriers: true,
		GCWorkers:      4,
		Policy:         core.DefaultPolicy{},
		FaultInjector:  inj,
		AuditEveryGC:   true,
	})
	lc := defineLeakClasses(v)
	g := v.AddGlobal()
	// Every payload carries a finalizer, so pruning the chain gives the
	// FinalizerPanic arm something to fire in.
	err := leakDriverWith(v, lc, g, 1200, func(r heap.Ref) { v.SetFinalizer(r, func(FinalizerInfo) {}) })
	if err != nil && !vmerrors.IsOOM(err) && !vmerrors.IsInternal(err) {
		t.Fatalf("non-typed failure escaped the VM API: %v", err)
	}
	st := v.Stats()
	if st.AuditViolations != 0 {
		t.Fatalf("%d invariant violations under chaos; the first failing audit: %s", st.AuditViolations, auditSummary(v.FirstFailedAudit()))
	}
	if st.DegradedTraces != st.RecoveredTracePanics {
		t.Fatalf("degraded=%d recovered=%d, want equal (only panics armed)",
			st.DegradedTraces, st.RecoveredTracePanics)
	}
	if fires := inj.Fires(faultinject.TraceWorkerPanic); fires > 0 && st.DegradedTraces == 0 {
		t.Fatalf("%d trace panics fired but no degradation recorded", fires)
	}
	if st.FinalizerPanics == 0 || st.FinalizerPanics != inj.Fires(faultinject.FinalizerPanic) {
		t.Fatalf("%d finalizer panics recovered, %d injected over %d finalizers run; want equal and nonzero",
			st.FinalizerPanics, inj.Fires(faultinject.FinalizerPanic), st.FinalizersRun)
	}
	t.Logf("chaos smoke: %d collections, %d degraded, %d finalizer panics, %d free-list repairs",
		st.Collections, st.DegradedTraces, st.FinalizerPanics, st.FreeListRepairs)
}

func TestEdgeTableOverflowDegradesGracefully(t *testing.T) {
	inj := faultinject.New(31)
	inj.Arm(faultinject.EdgeTableOverflow, 1.0)
	v := New(Options{
		HeapLimit:      256 << 10,
		EnableBarriers: true,
		GCWorkers:      1,
		Policy:         core.DefaultPolicy{},
		FaultInjector:  inj,
		AuditEveryGC:   true,
	})
	lc := defineLeakClasses(v)
	g := v.AddGlobal()
	// With every edge-type insertion dropped, selection has nothing to act
	// on: pruning cannot engage and the leak runs to a *typed* OOM — the
	// graceful outcome. The collection machinery itself must stay sound.
	err := leakDriver(v, lc, g, 1200)
	if err != nil && !vmerrors.IsOOM(err) {
		t.Fatalf("edge-table overflow caused a non-OOM failure: %v", err)
	}
	st := v.Stats()
	if st.EdgeTableOverflows == 0 {
		t.Fatal("no edge-table overflows recorded despite injection")
	}
	if st.AuditViolations != 0 {
		t.Fatalf("%d invariant violations; the first failing audit: %s", st.AuditViolations, auditSummary(v.FirstFailedAudit()))
	}
}

// --- Offload disk I/O faults ---

func TestOffloadWriteFaultFallsBackToHeap(t *testing.T) {
	inj := faultinject.New(9)
	inj.Arm(faultinject.OffloadWriteFault, 1.0)
	v := New(Options{
		HeapLimit:      64 << 10,
		EnableBarriers: true,
		GCWorkers:      1,
		OffloadDisk:    4 << 20,
		FaultInjector:  inj,
	})
	lc := defineLeakClasses(v)
	g := v.AddGlobal()
	err := leakDriver(v, lc, g, 300)
	// Every write fails, so the disk never absorbs the leak: the run ends
	// in a typed OOM with all objects kept in heap.
	if err != nil && !vmerrors.IsOOM(err) {
		t.Fatalf("write-fault run died with non-OOM: %v", err)
	}
	st := v.OffloadStats()
	if st.KeptInHeap == 0 {
		t.Fatal("no objects recorded as kept in heap")
	}
	if st.ObjectsMoved != 0 || v.Disk().BytesUsed != 0 {
		t.Fatalf("objects reached disk despite total write failure: moved=%d disk=%d",
			st.ObjectsMoved, v.Disk().BytesUsed)
	}
	if st.WriteFaults == 0 || st.WriteRetries == 0 {
		t.Fatalf("retry accounting empty: %+v", st)
	}
}

func TestOffloadWriteFaultTransientRetriesSucceed(t *testing.T) {
	inj := faultinject.New(13)
	inj.Arm(faultinject.OffloadWriteFault, 1.0)
	inj.Limit(faultinject.OffloadWriteFault, 2) // fewer than the attempt budget
	v := New(Options{
		HeapLimit:      256 << 10,
		EnableBarriers: true,
		GCWorkers:      1,
		OffloadDisk:    4 << 20,
		FaultInjector:  inj,
	})
	lc := defineLeakClasses(v)
	g := v.AddGlobal()
	if err := leakDriver(v, lc, g, 1200); err != nil {
		t.Fatalf("transient-fault run died: %v", err)
	}
	st := v.OffloadStats()
	if st.KeptInHeap != 0 {
		t.Fatalf("transient faults left %d objects unoffloaded", st.KeptInHeap)
	}
	if st.WriteRetries != 2 || st.ObjectsMoved == 0 {
		t.Fatalf("retries=%d moved=%d, want 2 retries then success", st.WriteRetries, st.ObjectsMoved)
	}
}

func TestOffloadReadFaultThrowsTypedError(t *testing.T) {
	inj := faultinject.New(17)
	v := New(Options{
		HeapLimit:      256 << 10,
		EnableBarriers: true,
		GCWorkers:      1,
		OffloadDisk:    4 << 20,
		FaultInjector:  inj,
	})
	lc := defineLeakClasses(v)
	g := v.AddGlobal()
	if err := leakDriver(v, lc, g, 1200); err != nil {
		t.Fatalf("offload run died: %v", err)
	}
	if v.OffloadStats().ObjectsMoved == 0 {
		t.Fatal("nothing was offloaded; read faults have nothing to hit")
	}

	// Persistent read failure: the walk into the offloaded region must
	// surface a typed OffloadError, not a hang or a raw panic.
	inj.Arm(faultinject.OffloadReadFault, 1.0)
	err := v.RunThread("reader", func(th *Thread) {
		h := th.LoadGlobal(g)
		for !h.IsNull() {
			p := th.Load(h, 0)
			if !p.IsNull() {
				th.Load(p, 0)
			}
			h = th.Load(h, 1)
		}
	})
	var oe *vmerrors.OffloadError
	if !errors.As(err, &oe) {
		t.Fatalf("reader returned %v, want OffloadError", err)
	}
	if oe.Op != "read" || oe.Attempts == 0 {
		t.Fatalf("OffloadError fields: %+v", oe)
	}
	if st := v.OffloadStats(); st.ReadAborts == 0 || st.ReadRetries == 0 {
		t.Fatalf("read retry accounting empty: %+v", st)
	}

	// Transient read failure: retries absorb it and the walk completes.
	inj2 := faultinject.New(19)
	inj2.Arm(faultinject.OffloadReadFault, 1.0)
	inj2.Limit(faultinject.OffloadReadFault, 2)
	v.offloader.SetFaultInjector(inj2)
	err = v.RunThread("reader2", func(th *Thread) {
		h := th.LoadGlobal(g)
		for !h.IsNull() {
			h = th.Load(h, 1)
		}
	})
	if err != nil {
		t.Fatalf("transient read faults were not absorbed: %v", err)
	}
	if st := v.offloader.Stats(); st.ReadRetries == 0 {
		t.Fatalf("transient retries not recorded: %+v", st)
	}
}
