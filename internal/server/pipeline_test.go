package server

import (
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"leakpruning/internal/obs"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRequestValidation: non-positive and absurd iteration counts are
// rejected at the boundary with a typed *RequestValidationError instead of
// being silently clamped, and every request-path error type maps onto the
// HTTP status the API contract promises.
func TestRequestValidation(t *testing.T) {
	s := mustServer(t, testConfig())
	if _, err := s.Admit(TenantConfig{Name: "a", Workload: "listleak", Policy: "default", HeapLimit: 256 << 10}); err != nil {
		t.Fatalf("admit: %v", err)
	}
	for _, iters := range []int{0, -1, -50, MaxRequestIters + 1, 1 << 30} {
		done, err := s.RunRequest("a", iters)
		var ve *RequestValidationError
		if !errors.As(err, &ve) {
			t.Fatalf("RunRequest(iters=%d) = %v (%T), want *RequestValidationError", iters, err, err)
		}
		if done != 0 || ve.Iters != iters || ve.Tenant != "a" {
			t.Fatalf("RunRequest(iters=%d) = (%d, %+v)", iters, done, ve)
		}
	}
	// The boundary value itself is accepted (the tenant may still fail it
	// for its own reasons; validation must not).
	if _, err := s.RunRequest("a", 1); err != nil {
		t.Fatalf("RunRequest(1): %v", err)
	}

	// The error→status table: one row per typed error the request path can
	// return.
	for _, row := range []struct {
		err  error
		want int
	}{
		{&RequestValidationError{Tenant: "a", Iters: 0, Detail: "x"}, http.StatusBadRequest},
		{&QueueFullError{Tenant: "a", Depth: 4}, http.StatusTooManyRequests},
		{&UnknownTenantError{Tenant: "a"}, http.StatusNotFound},
		{&TenantUnavailableError{Tenant: "a", State: TenantQuarantined}, http.StatusConflict},
		{&WatchdogTimeoutError{Tenant: "a", Timeout: time.Second}, http.StatusGatewayTimeout},
		{&AdmissionError{Tenant: "a", Reason: "draining"}, http.StatusServiceUnavailable},
		{errors.New("untyped"), http.StatusInternalServerError},
	} {
		if got := statusFor(row.err); got != row.want {
			t.Errorf("statusFor(%T %v) = %d, want %d", row.err, row.err, got, row.want)
		}
	}
}

// TestWatchdogLateOutcome audits the watchdog-abandonment path: when the
// caller takes its timeout and walks away, the abandoned request's late
// result must still reach finishRequest (the cancel is counted, pending
// comes back to zero exactly once) and a late SUCCESS must not reset the
// consecutive-fault streak the timeout just started.
func TestWatchdogLateOutcome(t *testing.T) {
	cfg := testConfig()
	cfg.Budget = 64 << 20
	cfg.RequestTimeout = 30 * time.Millisecond
	cfg.Obs = obs.New()
	s := mustServer(t, cfg)
	// A non-leaking steady-state workload: the request outlives the
	// watchdog without ever nearing its heap limit.
	tn, err := s.Admit(TenantConfig{Name: "slow", Workload: "antlr", Policy: "off", HeapLimit: 8 << 20})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}

	cancelsBefore := s.mReqCancel.Load()
	done, err := s.RunRequest("slow", MaxRequestIters)
	var wt *WatchdogTimeoutError
	if !errors.As(err, &wt) {
		t.Fatalf("RunRequest = (%d, %v), want *WatchdogTimeoutError", done, err)
	}
	if got := s.mReqTimeout.Load(); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
	// The watchdog fault is on the streak immediately.
	if got := tn.consecFaults.Load(); got != 1 {
		t.Fatalf("consecFaults after timeout = %d, want 1", got)
	}

	// The worker must deliver the abandoned request's outcome: it stops at
	// the next iteration boundary, its cancellation is recorded, and the
	// request leaves pending — exactly once (a second decrement would read
	// negative).
	waitFor(t, 5*time.Second, "late outcome to reach finishRequest", func() bool {
		return s.mReqCancel.Load() == cancelsBefore+1 && tn.pipe.pending.Load() == 0
	})
	if got := tn.cancelled.Load(); got != 1 {
		t.Fatalf("cancelled = %d, want 1", got)
	}
	// The late cancellation is the daemon's doing: it must not have grown
	// the fault streak past the watchdog's own entry.
	if got := tn.consecFaults.Load(); got != 1 {
		t.Fatalf("consecFaults after late outcome = %d, want 1", got)
	}

	// The worker is free: a quick follow-up request is served normally.
	if _, err := s.RunRequest("slow", 1); err != nil {
		t.Fatalf("request after late outcome: %v", err)
	}
	waitFor(t, 5*time.Second, "follow-up to leave pending", func() bool { return tn.pipe.pending.Load() <= 0 })
	if got := tn.pipe.pending.Load(); got != 0 {
		t.Fatalf("pending after follow-up = %d, want 0 (double decrement?)", got)
	}

	// Late-success rule, tested directly: a request that finishes OK after
	// its caller already took the timeout must not reset the streak.
	tn.consecFaults.Store(3)
	s.finishRequest(tn, nil, tn.sessionEpoch.Load(), true)
	if got := tn.consecFaults.Load(); got != 3 {
		t.Fatalf("late success reset consecFaults to %d, want 3 untouched", got)
	}
	tn.consecFaults.Store(0)
}

// TestPipelineBackpressure: a tenant whose queue is full sheds the overflow
// request with a typed *QueueFullError (HTTP 429) instead of parking it —
// the default one-worker tenant included — and the queue-wait histogram
// sees the requests that did queue.
func TestPipelineBackpressure(t *testing.T) {
	for _, row := range []struct {
		name, pipeline string
		workers, depth int // as configured
		wantPipe       string
		wantDepth      int
	}{
		{name: "concurrent-1x1", pipeline: PipelineConcurrent, workers: 1, depth: 1, wantPipe: PipelineConcurrent, wantDepth: 1},
		{name: "default", wantPipe: PipelineSerial, wantDepth: 16},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Budget = 64 << 20
			cfg.Obs = obs.New()
			s := mustServer(t, cfg)
			tn, err := s.Admit(TenantConfig{Name: "pipe", Workload: "antlr", Policy: "off", HeapLimit: 8 << 20,
				Pipeline: row.pipeline, Workers: row.workers, QueueDepth: row.depth})
			if err != nil {
				t.Fatalf("admit: %v", err)
			}
			if st := tn.status(); st.Pipeline != row.wantPipe || st.Workers != 1 {
				t.Fatalf("status = pipeline %q workers %d, want %s/1", st.Pipeline, st.Workers, row.wantPipe)
			}
			p := tn.pipe

			// Occupy the single worker with a long request, then fill the
			// queue to its depth; the next request must be shed.
			var wg sync.WaitGroup
			for i := 0; i < 1+row.wantDepth; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, _ = s.RunRequest("pipe", MaxRequestIters)
				}()
				want := int64(i + 1)
				waitFor(t, 5*time.Second, "request to occupy the pipeline", func() bool {
					return p.pending.Load() == want
				})
				if i == 0 {
					// The worker must have taken the first request off the
					// queue before the rest are sent, or the last of them is
					// the one shed (the worker goroutine may not even have
					// been scheduled yet).
					waitFor(t, 5*time.Second, "worker pickup", func() bool { return len(p.queue) == 0 })
				}
			}
			// Worker busy + queue full:
			waitFor(t, 5*time.Second, "queue to fill", func() bool { return len(p.queue) == row.wantDepth })
			_, err = s.RunRequest("pipe", 1)
			var qf *QueueFullError
			if !errors.As(err, &qf) {
				t.Fatalf("overflow request = %v (%T), want *QueueFullError", err, err)
			}
			if qf.Tenant != "pipe" || qf.Depth != row.wantDepth {
				t.Fatalf("QueueFullError = %+v, want tenant pipe depth %d", qf, row.wantDepth)
			}

			// Unwedge: cancel at iteration boundaries and wait the callers out.
			tn.cancel.Store(true)
			wg.Wait()
			tn.cancel.Store(false)
			if got := tn.queueWait.Count(); got < 2 {
				t.Fatalf("queue-wait observations = %d, want >= 2", got)
			}
			// The dispatched requests finished through observeLatency, so the
			// /pressure SLO block has samples.
			slos := s.LatencySLOs()
			if slos["0"].Count < 2 {
				t.Fatalf("level-0 latency SLO count = %d, want >= 2 (%+v)", slos["0"].Count, slos)
			}
		})
	}
}

// TestPipelineIsolationStress is the in-tenant concurrency proof: K
// goroutines fire mixed small/large requests at one pipelined tenant with
// the per-GC invariant audit armed, while a one-worker sibling runs its
// fixed deterministic sequence. The pipelined tenant must finish with ZERO
// audit violations, and the sibling's per-cycle live-set hashes must be
// byte-identical to a control daemon whose victim tenant is the default
// one-worker one — the pool must not leak scheduling nondeterminism across
// tenants. Run it under -race for the full claim.
func TestPipelineIsolationStress(t *testing.T) {
	const (
		stormWorkers  = 8
		stormRequests = 20
		largeIters    = 16
	)
	sibling := TenantConfig{Name: "sib", Workload: "listleak", Policy: "default", HeapLimit: 256 << 10,
		AuditEveryGC: true}
	victim := TenantConfig{Name: "victim", Workload: "queueleak", Policy: "default", HeapLimit: 8 << 20,
		AuditEveryGC: true}

	base := testConfig()
	base.Budget = 64 << 20
	base.RequestTimeout = 30 * time.Second
	base.QuarantineThreshold = -1 // storms may OOM in bursts; keep serving

	// Control: default one-worker victim, identical drive on the sibling.
	base.Obs = obs.New()
	control := mustServer(t, base)
	if _, err := control.Admit(sibling); err != nil {
		t.Fatalf("control admit sibling: %v", err)
	}
	if _, err := control.Admit(victim); err != nil {
		t.Fatalf("control admit victim: %v", err)
	}
	driveSibling(t, control, "sib")
	controlHashes := control.tenant("sib").CycleHashes()

	// Stressed daemon: the same victim, now pipelined, under a K-goroutine
	// mixed-size storm concurrent with the sibling's deterministic drive.
	base.Obs = obs.New()
	s := mustServer(t, base)
	if _, err := s.Admit(sibling); err != nil {
		t.Fatalf("admit sibling: %v", err)
	}
	victim.Pipeline = PipelineConcurrent
	victim.Workers = 4
	victim.QueueDepth = 32
	vt, err := s.Admit(victim)
	if err != nil {
		t.Fatalf("admit victim: %v", err)
	}

	var wg sync.WaitGroup
	var okCount, errCount int64
	var cntMu sync.Mutex
	for w := 0; w < stormWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < stormRequests; i++ {
				iters := 1 // small
				if (w+i)%2 == 1 {
					iters = largeIters
				}
				_, err := s.RunRequest("victim", iters)
				cntMu.Lock()
				if err == nil {
					okCount++
				} else {
					errCount++
				}
				cntMu.Unlock()
			}
		}(w)
	}
	driveSibling(t, s, "sib")
	wg.Wait()

	if okCount == 0 {
		t.Fatalf("storm produced no successful requests (%d errors)", errCount)
	}
	// The audit verdict: every GC in the pipelined tenant re-proved the
	// heap invariants with K mutators in flight.
	st := vt.status()
	if st.AuditsRun == 0 {
		t.Fatal("victim ran no audits; AuditEveryGC did not arm")
	}
	if st.AuditViolations != 0 {
		t.Fatalf("victim audit violations = %d, want 0 (audits run: %d)", st.AuditViolations, st.AuditsRun)
	}
	if vt.queueWait.Count() == 0 {
		t.Fatal("no queue-wait observations; the storm never exercised the pipeline")
	}

	// The cross-tenant determinism verdict: byte-identical sibling hashes.
	wantSameHashes(t, s.tenant("sib").CycleHashes(), controlHashes)
}
