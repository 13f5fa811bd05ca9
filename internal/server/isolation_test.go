package server

import (
	"errors"
	"testing"
	"time"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/obs"
)

// driveSibling runs the fixed request sequence the isolation tests use for
// the well-behaved tenant: enough leaking iterations in a small pruned
// heap to force several full SELECT/PRUNE collections.
func driveSibling(t *testing.T, s *Server, name string) {
	t.Helper()
	for i := 0; i < 12; i++ {
		if _, err := s.RunRequest(name, 25); err != nil {
			t.Fatalf("sibling %s request %d: %v", name, i, err)
		}
	}
}

// wantSameHashes is the isolation oracle: a sibling's per-cycle live-set
// hashes must be byte-identical to the fault-free control's, and there must
// be some.
func wantSameHashes(t *testing.T, got, control []uint64) {
	t.Helper()
	if len(control) == 0 {
		t.Fatal("control sibling ran no collections; the oracle is vacuous")
	}
	if len(got) != len(control) {
		t.Fatalf("sibling ran %d collections, control ran %d", len(got), len(control))
	}
	for i := range got {
		if got[i] != control[i] {
			t.Fatalf("cycle %d live-set hash diverged: %#x vs control %#x", i, got[i], control[i])
		}
	}
}

// TestCrashIsolation is the tentpole guarantee in miniature: a tenant
// whose request handler panics on every request (1) returns typed
// per-tenant errors instead of crashing the daemon, (2) is quarantined
// after K consecutive faults, and (3) leaves a sibling tenant's per-cycle
// live-set hashes BYTE-IDENTICAL to a control daemon that never saw a
// fault.
func TestCrashIsolation(t *testing.T) {
	// AuditEveryGC is what makes the sibling log per-cycle hashes at all.
	sibling := TenantConfig{Name: "good", Workload: "listleak", Policy: "default", HeapLimit: 256 << 10,
		AuditEveryGC: true}

	// Control: the sibling alone, no faults anywhere.
	control := mustServer(t, testConfig())
	if _, err := control.Admit(sibling); err != nil {
		t.Fatalf("control admit: %v", err)
	}
	driveSibling(t, control, "good")
	controlHashes := control.tenant("good").CycleHashes()

	// Faulty daemon: same sibling plus a tenant that panics on every
	// request.
	cfg := testConfig()
	cfg.QuarantineThreshold = 3
	cfg.Obs = obs.New()
	s := mustServer(t, cfg)
	if _, err := s.Admit(sibling); err != nil {
		t.Fatalf("admit sibling: %v", err)
	}
	inj := faultinject.New(1)
	inj.Arm(faultinject.TenantRequestPanic, 1.0)
	bad, err := s.Admit(TenantConfig{Name: "bad", Workload: "listleak", Policy: "default",
		HeapLimit: 256 << 10, DaemonInjector: inj})
	if err != nil {
		t.Fatalf("admit bad: %v", err)
	}

	// Interleave: sibling requests between panic storms.
	for i := 0; i < 3; i++ {
		_, err := s.RunRequest("bad", 5)
		var pe *RequestPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("storm request %d: got %v (%T), want *RequestPanicError", i, err, err)
		}
		if pe.Tenant != "bad" {
			t.Fatalf("panic error names tenant %q, want bad", pe.Tenant)
		}
	}
	driveSibling(t, s, "good")

	// K = 3 consecutive faults => quarantined; further requests are
	// rejected with the tenant's state, not served.
	if st := bad.State(); st != TenantQuarantined {
		t.Fatalf("bad tenant state = %v, want quarantined", st)
	}
	_, err = s.RunRequest("bad", 1)
	var tu *TenantUnavailableError
	if !errors.As(err, &tu) || tu.State != TenantQuarantined {
		t.Fatalf("request to quarantined tenant = %v, want *TenantUnavailableError{quarantined}", err)
	}
	if got := s.mQuarantines.Load(); got != 1 {
		t.Fatalf("lp_tenant_quarantines_total = %d, want 1", got)
	}

	// The isolation proof: the sibling's per-cycle live-set hashes are
	// byte-identical to the fault-free control's.
	wantSameHashes(t, s.tenant("good").CycleHashes(), controlHashes)

	// A success resets the consecutive-fault counter (no spurious
	// quarantine from interleaved faults).
	if got := s.tenant("good").consecFaults.Load(); got != 0 {
		t.Fatalf("sibling consecutive faults = %d, want 0", got)
	}
}

// TestQuarantineRequiresConsecutive: faults separated by successes never
// quarantine — only K in a row do.
func TestQuarantineRequiresConsecutive(t *testing.T) {
	cfg := testConfig()
	cfg.QuarantineThreshold = 3
	s := mustServer(t, cfg)
	inj := faultinject.New(7)
	tn, err := s.Admit(TenantConfig{Name: "flaky", Workload: "listleak", Policy: "default",
		HeapLimit: 256 << 10, DaemonInjector: inj})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	for round := 0; round < 4; round++ {
		// Two faults...
		inj.Arm(faultinject.TenantRequestPanic, 1.0)
		for i := 0; i < 2; i++ {
			if _, err := s.RunRequest("flaky", 1); err == nil {
				t.Fatal("armed request did not fault")
			}
		}
		// ...then a success resets the streak.
		inj.Arm(faultinject.TenantRequestPanic, 0)
		if _, err := s.RunRequest("flaky", 1); err != nil {
			t.Fatalf("disarmed request faulted: %v", err)
		}
		if st := tn.State(); st != TenantServing {
			t.Fatalf("round %d: state = %v, want serving", round, st)
		}
	}
	if got := tn.faults.Load(); got != 8 {
		t.Fatalf("faults = %d, want 8", got)
	}
}

// TestSelfChecksAreOptIn: a tenant admitted without AuditEveryGC collects
// without fingerprinting, auditing or logging anything per cycle, and its
// requests leave nothing behind in the daemon's tracer; the same tenant
// with AuditEveryGC logs exactly one hash per collection.
func TestSelfChecksAreOptIn(t *testing.T) {
	cfg := testConfig()
	cfg.Budget = 16 << 20
	cfg.Obs = obs.New()
	s := mustServer(t, cfg)
	plain := TenantConfig{Name: "plain", Workload: "listleak", Policy: "default", HeapLimit: 256 << 10}
	audited := plain
	audited.Name, audited.AuditEveryGC = "audited", true
	for _, tc := range []TenantConfig{plain, audited} {
		if _, err := s.Admit(tc); err != nil {
			t.Fatalf("admit %s: %v", tc.Name, err)
		}
		driveSibling(t, s, tc.Name)
	}

	st := s.tenant("plain").status()
	if st.Collections == 0 {
		t.Fatal("plain tenant ran no collections; the test is vacuous")
	}
	if n := len(s.tenant("plain").CycleHashes()); n != 0 || st.Cycles != 0 || st.AuditsRun != 0 {
		t.Fatalf("plain tenant logged %d hashes (live_hash_cycles %d) and ran %d audits over %d collections, want none",
			n, st.Cycles, st.AuditsRun, st.Collections)
	}

	st = s.tenant("audited").status()
	hashes := s.tenant("audited").CycleHashes()
	if uint64(len(hashes)) != st.Collections || uint64(st.Cycles) != st.Collections || st.AuditsRun == 0 {
		t.Fatalf("audited tenant: %d hashes, live_hash_cycles %d, %d audits over %d collections; want one per collection",
			len(hashes), st.Cycles, st.AuditsRun, st.Collections)
	}
	for i, h := range hashes {
		if h == 0 {
			t.Fatalf("audited cycle %d logged a zero hash", i)
		}
	}

	// 1 000 small requests on a heap roomy enough to collect rarely: the
	// sink may gain those collections' spans, never an event per request
	// thread.
	roomy := plain
	roomy.Name, roomy.HeapLimit = "roomy", 8<<20
	if _, err := s.Admit(roomy); err != nil {
		t.Fatalf("admit roomy: %v", err)
	}
	const requests = 1000
	before := cfg.Obs.Tracer().Len()
	for i := 0; i < requests; i++ {
		if _, err := s.RunRequest("roomy", 1); err != nil {
			t.Fatalf("small request %d: %v", i, err)
		}
	}
	grew := cfg.Obs.Tracer().Len() - before
	if collections := s.tenant("roomy").status().Collections; grew >= requests/4 {
		t.Fatalf("tracer sink grew by %d events over %d requests and %d collections", grew, requests, collections)
	}
}

// TestRequestSequenceIsReproducible: one fixed request sequence on a
// serial STW tenant gives the same cycles and the same prunes on two fresh
// daemons. Which iterations share a request thread does matter: a thread's
// unspent allocation quota counts as used bytes until the thread exits, so
// it moves the soft collection trigger, and splitting the same iterations
// into other requests can change the bytes pruned. A load generator whose
// requests reach a tenant in varying order sees exactly that.
func TestRequestSequenceIsReproducible(t *testing.T) {
	run := func() (hashes []uint64, st TenantStatus, pruned uint64) {
		cfg := testConfig()
		cfg.Budget = 4 << 20
		s := mustServer(t, cfg)
		tn, err := s.Admit(TenantConfig{Name: "q", Workload: "queueleak", Policy: "default",
			HeapLimit: 2 << 20, AuditEveryGC: true})
		if err != nil {
			t.Fatalf("admit: %v", err)
		}
		for round := 0; round < 12; round++ {
			for _, iters := range []int{200, 1, 1, 1, 1} {
				if _, err := s.RunRequest("q", iters); err != nil {
					t.Fatalf("round %d: %d iterations: %v", round, iters, err)
				}
			}
		}
		for _, ev := range tn.currentVM().PruneEvents() {
			pruned += ev.BytesFreed
		}
		return tn.CycleHashes(), tn.status(), pruned
	}
	hashes, st, pruned := run()
	if st.PrunedRefs == 0 || st.AuditViolations != 0 {
		t.Fatalf("first run pruned %d refs with %d audit violations; want prunes and a clean heap",
			st.PrunedRefs, st.AuditViolations)
	}
	again, st2, pruned2 := run()
	wantSameHashes(t, again, hashes)
	if st2.Collections != st.Collections || st2.PrunedRefs != st.PrunedRefs || pruned2 != pruned {
		t.Fatalf("second run: %d collections, %d pruned refs, %d bytes pruned; first: %d, %d, %d",
			st2.Collections, st2.PrunedRefs, pruned2, st.Collections, st.PrunedRefs, pruned)
	}
}

// TestEvictionIsolation: evicting a tenant — by the pressure ladder, with
// the probe stalled and the drain forced onto its deadline, or with a
// request still in flight — is invisible to a sibling and leaves every heap
// audit-clean.
func TestEvictionIsolation(t *testing.T) {
	t.Run("ladder", func(t *testing.T) {
		sibling := TenantConfig{Name: "good", Workload: "listleak", Policy: "default", HeapLimit: 256 << 10,
			AuditEveryGC: true}
		// The victim leaks ~23 KiB per request with pruning off and a
		// budget-sized heap: only the ladder can (and must) stop it.
		victim := TenantConfig{Name: "victim", Workload: "listleak", Policy: "off", HeapLimit: 1 << 20}

		// run drives one daemon through the fixed round-robin schedule with
		// manual probes and returns the sibling's hash log.
		run := func(probeInj, drainInj *faultinject.Injector) []uint64 {
			cfg := testConfig() // budget 1 MiB
			cfg.Injector = probeInj
			s := mustServer(t, cfg)
			armed := victim
			armed.DaemonInjector = drainInj
			for _, tc := range []TenantConfig{sibling, armed} {
				if _, err := s.Admit(tc); err != nil {
					t.Fatalf("admit %s: %v", tc.Name, err)
				}
			}
			evictions := 0
			for round := 0; round < 80; round++ {
				if _, err := s.RunRequest("good", 2); err != nil {
					t.Fatalf("round %d: sibling: %v", round, err)
				}
				if s.tenant("victim") != nil {
					if _, err := s.RunRequest("victim", 1); err != nil {
						t.Fatalf("round %d: victim: %v (the ladder should evict before the tenant's own OOM)", round, err)
					}
				}
				if s.ProbeBudget().Evicted == "victim" {
					evictions++
				}
			}
			if evictions != 1 {
				t.Fatalf("the ladder evicted the victim %d times, want 1", evictions)
			}
			hashes := s.tenant("good").CycleHashes()
			if rep, err := s.Shutdown(); err != nil || len(rep.AuditViolations) != 0 {
				t.Fatalf("shutdown: %v (audit violations %v)", err, rep.AuditViolations)
			}
			return hashes
		}

		controlHashes := run(nil, nil)
		probeInj, drainInj := faultinject.New(1), faultinject.New(1)
		probeInj.Arm(faultinject.BudgetProbeStall, 0.25)
		drainInj.Arm(faultinject.EvictDrainTimeout, 1.0)
		wantSameHashes(t, run(probeInj, drainInj), controlHashes)
		if probeInj.Fires(faultinject.BudgetProbeStall) == 0 || drainInj.Fires(faultinject.EvictDrainTimeout) != 1 {
			t.Fatalf("%d probe stalls and %d drain timeouts fired; the faulty run is vacuous",
				probeInj.Fires(faultinject.BudgetProbeStall), drainInj.Fires(faultinject.EvictDrainTimeout))
		}
	})

	// On the sequential schedule above the drain finds nothing pending, so
	// the injected deadline never bites. With a request in flight it must:
	// the eviction cancels the request at an iteration boundary, and the
	// cancellation is the daemon's doing — not a fault of the tenant.
	t.Run("request in flight", func(t *testing.T) {
		cfg := testConfig()
		cfg.Budget = 64 << 20
		s := mustServer(t, cfg)
		inj := faultinject.New(1)
		inj.Arm(faultinject.EvictDrainTimeout, 1.0)
		tn, err := s.Admit(TenantConfig{Name: "busy", Workload: "antlr", Policy: "off", HeapLimit: 8 << 20,
			DaemonInjector: inj})
		if err != nil {
			t.Fatalf("admit: %v", err)
		}
		p := tn.pipe
		reqErr := make(chan error, 1)
		go func() {
			_, err := s.RunRequest("busy", MaxRequestIters)
			reqErr <- err
		}()
		waitFor(t, 5*time.Second, "the request to be in flight", func() bool { return p.pending.Load() == 1 })

		findings, err := s.EvictTenant("busy", "test")
		if err != nil || len(findings) != 0 {
			t.Fatalf("eviction = %v, findings %v; want a clean teardown", err, findings)
		}
		var ce *RequestCancelledError
		if err := <-reqErr; !errors.As(err, &ce) {
			t.Fatalf("in-flight request = %v (%T), want *RequestCancelledError", err, err)
		}
		if inj.Fires(faultinject.EvictDrainTimeout) != 1 {
			t.Fatal("EvictDrainTimeout never fired")
		}
		if tn.State() != TenantEvicted || tn.cancelled.Load() != 1 || tn.faults.Load() != 0 {
			t.Fatalf("state %v, %d cancelled, %d faults; want evicted, 1, 0",
				tn.State(), tn.cancelled.Load(), tn.faults.Load())
		}
	})
}
