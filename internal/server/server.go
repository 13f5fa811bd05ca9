package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/obs"
	"leakpruning/internal/vmerrors"
)

// Config sizes and arms the daemon.
type Config struct {
	// Budget is the global resident-byte budget across all tenant heaps.
	// The pressure ladder keeps sum(BytesUsed) under it; required.
	Budget uint64
	// QuarantineThreshold is K: consecutive faults before a tenant is
	// quarantined (0 = 5, negative = never).
	QuarantineThreshold int
	// RequestTimeout is the per-request watchdog deadline (0 = 5s).
	RequestTimeout time.Duration
	// DrainTimeout bounds eviction and shutdown drains (0 = 5s).
	DrainTimeout time.Duration
	// ProbeInterval is the budget prober's period (0 = manual ProbeBudget
	// calls only — what the tests use for determinism).
	ProbeInterval time.Duration
	// Obs receives every daemon metric; nil disables observability.
	Obs *obs.Obs
	// Injector arms the daemon-level points (BudgetProbeStall here;
	// per-tenant points live on TenantConfig). Nil disables.
	Injector *faultinject.Injector
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.QuarantineThreshold == 0 {
		c.QuarantineThreshold = 5
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	return c
}

// Server is the daemon: a tenant table behind admission control, a request
// router with a per-tenant watchdog, the budget-pressure controller, and
// drain/shutdown orchestration.
type Server struct {
	cfg Config
	obs *obs.Obs

	mu      sync.Mutex
	tenants map[string]*Tenant
	// reserved sums the HeapLimits of admissions that hold a nil name
	// reservation in tenants while their VM is built outside mu.
	reserved uint64

	// accepting gates new requests; ready mirrors it for /readyz. Flipped
	// false first thing in Shutdown, before the drain wait, so the
	// "no request executes after readyz flips" ordering holds: RunRequest
	// re-checks accepting AFTER joining the inflight group.
	accepting atomic.Bool
	// cancelAll asks every in-flight request to stop at its next iteration
	// boundary (set when the drain deadline expires).
	cancelAll atomic.Bool
	// drainMu orders inflight joins against the accepting flip: requests
	// check-and-Add under the read lock, Shutdown flips accepting under the
	// write lock, so by the time Shutdown calls inflight.Wait no Add can
	// race it and no request can join after readiness turned false.
	drainMu  sync.RWMutex
	inflight sync.WaitGroup

	// level is the ladder position last computed by ProbeBudget (0-3).
	level atomic.Int64
	// tightened remembers that level >= 1 pushed tightenTo onto tenants.
	tightened atomic.Bool

	stopProbe chan struct{}
	probeOnce sync.Once
	probeWG   sync.WaitGroup

	shutdownOnce sync.Once
	shutdownRep  *ShutdownReport
	shutdownErr  error

	// Daemon metrics (all nil-safe when cfg.Obs is nil).
	mAdmitted     *obs.Counter
	mRejected     *obs.Counter
	mEvictions    *obs.Counter
	mQuarantines  *obs.Counter
	mRestarts     *obs.Counter
	mProbes       *obs.Counter
	mForcedCycles *obs.Counter
	mReqOK        *obs.Counter
	mReqTrap      *obs.Counter
	mReqPanic     *obs.Counter
	mReqCancel    *obs.Counter
	mReqTimeout   *obs.Counter
	mReqRejected  *obs.Counter
	gPressure     *obs.Gauge
	gBudget       *obs.Gauge
	gResident     *obs.Gauge
	gTenants      *obs.Gauge

	// slo aggregates per-request latency into the per-ladder-level
	// summaries /pressure serves (slo.go).
	slo sloState
}

// New builds a daemon from cfg and starts the budget prober when
// ProbeInterval > 0. Callers own Shutdown.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Budget == 0 {
		return nil, fmt.Errorf("server: Config.Budget is required")
	}
	s := &Server{
		cfg:       cfg,
		obs:       cfg.Obs,
		tenants:   make(map[string]*Tenant),
		stopProbe: make(chan struct{}),
	}
	s.slo.names = make(map[string]struct{})
	reg := s.reg()
	s.mAdmitted = reg.NewCounter("lp_tenants_admitted_total", "tenants admitted")
	s.mRejected = reg.NewCounter("lp_admission_rejects_total", "tenant admissions rejected")
	s.mEvictions = reg.NewCounter("lp_tenant_evictions_total", "tenants evicted under budget pressure or by request")
	s.mQuarantines = reg.NewCounter("lp_tenant_quarantines_total", "tenants quarantined after consecutive faults")
	s.mRestarts = reg.NewCounter("lp_tenant_session_restarts_total", "tenant sessions restarted after heap exhaustion")
	s.mProbes = reg.NewCounter("lp_budget_probes_total", "budget-pressure probes")
	s.mForcedCycles = reg.NewCounter("lp_forced_cycles_total", "collections forced by the pressure ladder")
	s.mReqOK = reg.NewCounter("lp_requests_total", "requests by outcome", obs.L("outcome", "ok"))
	s.mReqTrap = reg.NewCounter("lp_requests_total", "requests by outcome", obs.L("outcome", "trap"))
	s.mReqPanic = reg.NewCounter("lp_requests_total", "requests by outcome", obs.L("outcome", "panic"))
	s.mReqCancel = reg.NewCounter("lp_requests_total", "requests by outcome", obs.L("outcome", "cancelled"))
	s.mReqTimeout = reg.NewCounter("lp_requests_total", "requests by outcome", obs.L("outcome", "timeout"))
	s.mReqRejected = reg.NewCounter("lp_requests_total", "requests by outcome", obs.L("outcome", "rejected"))
	s.gPressure = reg.NewGauge("lp_budget_pressure_level", "degradation ladder level (0=nominal, 3=evicting)")
	s.gBudget = reg.NewGauge("lp_budget_bytes", "global resident-byte budget")
	s.gResident = reg.NewGauge("lp_resident_bytes", "resident bytes summed across tenants")
	s.gTenants = reg.NewGauge("lp_tenants", "tenants currently hosted (serving or quarantined)")
	s.gBudget.Set(int64(cfg.Budget))
	s.accepting.Store(true)
	if cfg.ProbeInterval > 0 {
		s.probeWG.Add(1)
		go s.probeLoop()
	}
	return s, nil
}

func (s *Server) reg() *obs.Registry { return s.obs.Registry() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Ready reports whether the daemon accepts requests (/readyz).
func (s *Server) Ready() bool { return s.accepting.Load() }

// PressureLevel returns the ladder level last computed by ProbeBudget.
func (s *Server) PressureLevel() int { return int(s.level.Load()) }

// Budget returns the configured global budget in bytes.
func (s *Server) Budget() uint64 { return s.cfg.Budget }

// Admit validates tc against the budget and admits a new tenant. Typed
// *AdmissionError on every rejection path.
func (s *Server) Admit(tc TenantConfig) (*Tenant, error) {
	reject := func(reason, detail string) (*Tenant, error) {
		s.mRejected.Inc()
		s.mReqRejected.Inc()
		return nil, &AdmissionError{Tenant: tc.Name, Reason: reason, Detail: detail}
	}
	if !s.accepting.Load() {
		return reject("draining", ErrNotAccepting.Error())
	}
	if tc.Name == "" {
		return reject("invalid-config", "tenant name is required")
	}
	if tc.HeapLimit == 0 {
		return reject("invalid-config", "heap limit is required")
	}
	if tc.HeapLimit > s.cfg.Budget {
		return reject("budget-exceeded", fmt.Sprintf(
			"heap limit %d exceeds the global budget %d", tc.HeapLimit, s.cfg.Budget))
	}
	if s.PressureLevel() >= 3 {
		return reject("budget-pressure", "daemon is evicting; not admitting new tenants")
	}
	// Validate the VM options before taking the slot so a bad config is an
	// admission error, not a daemon panic.
	if _, err := tc.vmOptions(nil); err != nil {
		return reject("invalid-config", err.Error())
	}

	s.mu.Lock()
	if _, dup := s.tenants[tc.Name]; dup {
		s.mu.Unlock()
		return reject("duplicate-name", "a tenant with this name is already admitted")
	}
	committed := s.reserved
	for _, t := range s.tenants {
		if t != nil && t.State() != TenantEvicted {
			committed += t.Config().HeapLimit
		}
	}
	if limit := overcommitFactor * s.cfg.Budget; committed+tc.HeapLimit > limit {
		s.mu.Unlock()
		return reject("overcommit-exceeded", fmt.Sprintf(
			"committed heap %d + %d would exceed the overcommit bound %d", committed, tc.HeapLimit, limit))
	}
	// Reserve the name and the heap while building the VM outside the lock.
	s.tenants[tc.Name] = nil
	s.reserved += tc.HeapLimit
	s.mu.Unlock()

	t, err := newTenant(s, tc)
	s.mu.Lock()
	s.reserved -= tc.HeapLimit
	if err != nil {
		delete(s.tenants, tc.Name)
		s.mu.Unlock()
		return reject("invalid-config", err.Error())
	}
	s.tenants[tc.Name] = t
	s.mu.Unlock()
	s.mAdmitted.Inc()
	s.gTenants.Add(1)
	s.logf("tenant %s admitted (workload=%s policy=%s limit=%d)", tc.Name, tc.Workload, policyLabel(tc.Policy), tc.HeapLimit)
	return t, nil
}

// tenant looks up a live tenant entry (nil if unknown or mid-admission).
func (s *Server) tenant(name string) *Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[name]
}

// liveTenants snapshots the admitted tenants (name reservations skipped) so
// callers can walk them without holding mu.
func (s *Server) liveTenants() []*Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		if t != nil {
			list = append(list, t)
		}
	}
	return list
}

// RunRequest executes one request of iters workload iterations on the
// named tenant, guarded by the watchdog. It returns the iterations
// completed plus the tenant-isolated error, if any: VM traps, recovered
// panics, watchdog timeouts, and drain cancellations all come back as
// typed errors — never as daemon state.
func (s *Server) RunRequest(name string, iters int) (int, error) {
	// Join the inflight group under drainMu's read side: either this
	// request joins before Shutdown flips accepting (and the drain waits
	// for it), or it observes the flip and is rejected — never both, never
	// neither.
	s.drainMu.RLock()
	if !s.accepting.Load() {
		s.drainMu.RUnlock()
		s.mReqRejected.Inc()
		return 0, &AdmissionError{Tenant: name, Reason: "draining", Detail: ErrNotAccepting.Error()}
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()
	defer s.inflight.Done()
	if iters <= 0 || iters > MaxRequestIters {
		s.mReqRejected.Inc()
		return 0, &RequestValidationError{Tenant: name, Iters: iters,
			Detail: fmt.Sprintf("iters must be in [1, %d], got %d", MaxRequestIters, iters)}
	}
	t := s.tenant(name)
	if t == nil {
		s.mReqRejected.Inc()
		return 0, &UnknownTenantError{Tenant: name}
	}
	if st := t.State(); st != TenantServing {
		s.mReqRejected.Inc()
		return 0, &TenantUnavailableError{Tenant: name, State: st}
	}
	// The watchdog window covers queue wait plus execution: a request stuck
	// behind a sibling's slowness is still a watchdog trip.
	req := &pipelineReq{iters: iters, enqueued: time.Now(), resp: make(chan pipelineResp, 1)}
	if err := t.enqueue(req); err != nil {
		s.mReqRejected.Inc()
		return 0, err
	}
	t.requests.Add(1)
	timer := time.NewTimer(s.cfg.RequestTimeout)
	defer timer.Stop()
	select {
	case r := <-req.resp:
		s.observeLatency(t, req.enqueued)
		return r.done, r.err
	case <-timer.C:
		// Abandon the request, never the bookkeeping: a VM thread cannot be
		// killed, so the worker cancels it at the next iteration boundary,
		// records the late outcome — marked late, so a late SUCCESS cannot
		// erase the watchdog fault recorded below from the consecutive-fault
		// streak — and its buffered response send completes without a reader.
		req.timedOut.Store(true)
		req.cancel.Store(true)
		s.mReqTimeout.Inc()
		s.observeLatency(t, req.enqueued)
		werr := &WatchdogTimeoutError{Tenant: name, Timeout: s.cfg.RequestTimeout}
		t.recordOutcome(werr)
		return 0, werr
	}
}

// finishRequest classifies a request outcome into metrics and fault
// bookkeeping, restarting the tenant session after heap exhaustion.
// epoch is the session epoch the request executed against (sibling
// workers hitting the same dead session must trigger ONE restart); late
// marks an outcome whose caller already took a watchdog timeout, so a
// late success must not reset the consecutive-fault streak that timeout
// just started.
func (s *Server) finishRequest(t *Tenant, err error, epoch int64, late bool) {
	switch {
	case err == nil:
		s.mReqOK.Inc()
	case isPanicErr(err):
		s.mReqPanic.Inc()
	case isCancelErr(err):
		s.mReqCancel.Inc()
	default:
		s.mReqTrap.Inc()
	}
	if vmerrors.IsOOM(err) {
		// The session's heap is exhausted beyond what pruning could avert —
		// the paper's program-termination outcome, scoped to one tenant.
		// Restart the session so the slot keeps serving.
		s.restartSession(t, err, epoch)
	}
	if isCancelErr(err) {
		// Drain cancellation is the daemon's doing, not the tenant's fault:
		// it must not count toward quarantine.
		t.setLastErr(err)
		return
	}
	if late && err == nil {
		return
	}
	t.recordOutcome(err)
}

// restartSession rebuilds t's VM after exhaustion, with bounded backoff so
// a tenant that instantly re-exhausts cannot spin the daemon. epoch is
// the session the failure came from: when K pipeline workers OOM on the
// same session back to back, the first restart bumps the epoch and the
// siblings' attempts turn into no-ops instead of discarding the fresh VM.
func (s *Server) restartSession(t *Tenant, cause error, epoch int64) {
	t.restartMu.Lock()
	defer t.restartMu.Unlock()
	if t.sessionEpoch.Load() != epoch {
		return // a sibling worker already replaced this session
	}
	if st := t.State(); st == TenantEvicting || st == TenantEvicted {
		return // don't resurrect a VM on its way out the door
	}
	cfg := t.Config()
	backoff := time.Millisecond
	for attempt := 0; attempt < 3; attempt++ {
		if err := t.startSession(cfg); err == nil {
			t.restarts.Add(1)
			s.mRestarts.Inc()
			s.logf("tenant %s session restarted after %v", cfg.Name, cause)
			return
		} else {
			s.logf("tenant %s session restart attempt %d failed: %v", cfg.Name, attempt+1, err)
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	// Could not rebuild; quarantine rather than serve a dead VM.
	if t.state.CompareAndSwap(int32(TenantServing), int32(TenantQuarantined)) {
		s.mQuarantines.Inc()
	}
}

// UpdateTenant applies a rolling config update to a live tenant without a
// restart where possible: NearlyFullFraction changes land on the running
// VM; workload, policy, heap-limit, or mark-mode changes swap in a fresh
// session (validated first — an invalid update leaves the old session
// untouched).
func (s *Server) UpdateTenant(name string, tc TenantConfig) error {
	t := s.tenant(name)
	if t == nil {
		return &UnknownTenantError{Tenant: name}
	}
	if st := t.State(); st == TenantEvicting || st == TenantEvicted {
		return &TenantUnavailableError{Tenant: name, State: st}
	}
	tc.Name = name
	old := t.Config()
	if tc.Workload == "" {
		tc.Workload = old.Workload
	}
	if tc.HeapLimit == 0 {
		tc.HeapLimit = old.HeapLimit
	}
	if tc.Policy == "" {
		tc.Policy = old.Policy
	}
	// Validate BEFORE touching the tenant: reload must be all-or-nothing.
	if _, err := tc.vmOptions(nil); err != nil {
		return &AdmissionError{Tenant: name, Reason: "invalid-config", Detail: err.Error()}
	}
	if tc.HeapLimit > s.cfg.Budget {
		return &AdmissionError{Tenant: name, Reason: "budget-exceeded", Detail: fmt.Sprintf(
			"heap limit %d exceeds the global budget %d", tc.HeapLimit, s.cfg.Budget)}
	}

	sameSession := tc.Workload == old.Workload && tc.Policy == old.Policy &&
		tc.HeapLimit == old.HeapLimit && tc.MarkMode == old.MarkMode &&
		tc.AuditEveryGC == old.AuditEveryGC &&
		tc.Pipeline == old.Pipeline && tc.Workers == old.Workers &&
		tc.QueueDepth == old.QueueDepth
	if sameSession {
		t.cfgMu.Lock()
		t.cfg = tc
		t.cfgMu.Unlock()
		if tc.NearlyFullFraction != 0 && !s.tightened.Load() {
			if err := t.currentVM().SetNearlyFullFraction(tc.NearlyFullFraction); err != nil {
				return &AdmissionError{Tenant: name, Reason: "invalid-config", Detail: err.Error()}
			}
		}
		s.logf("tenant %s config updated in place", name)
		return nil
	}
	// Session swap: shut the gate and wait out the requests already inside.
	if !t.exclusive(s.cfg.DrainTimeout) {
		return &WatchdogTimeoutError{Tenant: name, Timeout: s.cfg.DrainTimeout}
	}
	defer t.release()
	if t.pipe == nil {
		// Evicted or shut down while this update waited at the gate.
		return &TenantUnavailableError{Tenant: name, State: t.State()}
	}
	if err := t.startSession(tc); err != nil {
		return &AdmissionError{Tenant: name, Reason: "invalid-config", Detail: err.Error()}
	}
	t.cfgMu.Lock()
	t.cfg = tc
	t.cfgMu.Unlock()
	t.reshapePipeline(tc)
	// Un-quarantine on an explicit operator-driven session swap: a fresh VM
	// deserves a fresh fault budget.
	t.consecFaults.Store(0)
	t.state.CompareAndSwap(int32(TenantQuarantined), int32(TenantServing))
	s.logf("tenant %s session swapped (workload=%s policy=%s limit=%d)", name, tc.Workload, policyLabel(tc.Policy), tc.HeapLimit)
	return nil
}

// EvictTenant removes a tenant: reject new requests, drain the in-flight
// one against DrainTimeout (cancelling at an iteration boundary if it
// overstays), run a final forced collection and invariant audit, release
// the slot. The audit findings are returned so callers can assert a clean
// teardown.
func (s *Server) EvictTenant(name, reason string) ([]string, error) {
	t := s.tenant(name)
	if t == nil {
		return nil, &UnknownTenantError{Tenant: name}
	}
	// Only one evictor proceeds.
	if !t.state.CompareAndSwap(int32(TenantServing), int32(TenantEvicting)) &&
		!t.state.CompareAndSwap(int32(TenantQuarantined), int32(TenantEvicting)) {
		return nil, &TenantUnavailableError{Tenant: name, State: t.State()}
	}
	s.logf("tenant %s evicting (%s)", name, reason)

	drain := s.cfg.DrainTimeout
	if t.Config().DaemonInjector.Should(faultinject.EvictDrainTimeout) {
		// Injected pathology: the in-flight request refuses to yield, so the
		// drain must take the cancellation path.
		drain = time.Nanosecond
	}
	if !t.exclusive(drain) {
		// Overstaying request(s): cancel at the next iteration boundary and
		// wait out the remainder of the drain for them to let go.
		t.cancel.Store(true)
		if !t.exclusive(s.cfg.DrainTimeout) {
			// Still wedged. Mark evicted anyway — the slot must come back —
			// but report it loudly. The gate is shut without the wait, so
			// the pool closes behind the wedged request(s).
			t.state.Store(int32(TenantEvicted))
			t.pipeMu.Lock()
			defer t.release()
			s.dropTenant(name, t)
			return nil, fmt.Errorf("server: tenant %q eviction drain timed out with a wedged request", name)
		}
		t.cancel.Store(false)
	}
	defer t.release()

	// Final forced collection and invariant audit on the way out.
	var findings []string
	if machine := t.currentVM(); machine != nil {
		machine.Collect()
		findings = machine.Verify()
	}
	t.state.Store(int32(TenantEvicted))
	s.dropTenant(name, t)
	s.mEvictions.Inc()
	if len(findings) > 0 {
		return findings, fmt.Errorf("server: tenant %q final audit found %d violations", name, len(findings))
	}
	return nil, nil
}

// dropTenant removes the table entry, stops the worker pool, and zeroes
// the tenant's gauges. Caller holds the tenant's gate.
func (s *Server) dropTenant(name string, t *Tenant) {
	s.mu.Lock()
	delete(s.tenants, name)
	s.mu.Unlock()
	t.closePipeline()
	s.gTenants.Add(-1)
	t.residentGauge.Set(0)
	t.queueDepth.Set(0)
}

// MaxPausesByMode aggregates, across every live tenant VM, the longest
// stop-the-world pause observed per GC cycle mode ("normal", "select",
// "prune"), in nanoseconds. Under concurrent marking the SELECT/PRUNE
// entries stay microsecond-scale; /pressure exposes this so operators can
// verify the frozen-snapshot machinery is actually keeping those pauses
// short under multi-tenant load.
func (s *Server) MaxPausesByMode() map[string]int64 {
	out := map[string]int64{}
	for _, t := range s.liveTenants() {
		machine := t.currentVM()
		if machine == nil {
			continue
		}
		for mode, ns := range machine.MaxPausesByMode() {
			if ns > out[mode] {
				out[mode] = ns
			}
		}
	}
	return out
}

// Tenants snapshots every tenant's status, sorted by name.
func (s *Server) Tenants() []TenantStatus {
	list := s.liveTenants()
	out := make([]TenantStatus, 0, len(list))
	for _, t := range list {
		out = append(out, t.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ShutdownReport summarizes a graceful shutdown for the operator.
type ShutdownReport struct {
	Tenants          int            `json:"tenants"`
	DrainedCleanly   bool           `json:"drained_cleanly"`
	CancelledInDrain uint64         `json:"cancelled_in_drain"`
	AuditViolations  map[string]int `json:"audit_violations,omitempty"`
}

// Shutdown drains the daemon: flip readiness off, wait out in-flight
// requests against DrainTimeout, cancel stragglers at iteration
// boundaries, then run a final forced collection and invariant audit per
// tenant. Idempotent; later calls return the first report.
func (s *Server) Shutdown() (*ShutdownReport, error) {
	s.shutdownOnce.Do(func() {
		s.shutdownRep, s.shutdownErr = s.shutdown()
	})
	return s.shutdownRep, s.shutdownErr
}

func (s *Server) shutdown() (*ShutdownReport, error) {
	// Order matters: accepting flips under drainMu's write lock BEFORE the
	// drain wait, and RunRequest joins the inflight group under the read
	// lock, so no new request can slip past the wait below. This is the
	// property shutdown_test.go races.
	s.drainMu.Lock()
	s.accepting.Store(false)
	s.drainMu.Unlock()
	s.probeOnce.Do(func() { close(s.stopProbe) })
	s.probeWG.Wait()

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	rep := &ShutdownReport{DrainedCleanly: true}
	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-drained:
	case <-timer.C:
		// Deadline: cancel everything at iteration boundaries and wait for
		// the boundary to be reached. VM iterations are short; this
		// converges as fast as the slowest single iteration.
		rep.DrainedCleanly = false
		s.cancelAll.Store(true)
		<-drained
	}

	// Final audit per tenant. Every caller is gone; what can still be
	// pending is a request its caller abandoned to the watchdog.
	var firstErr error
	for _, t := range s.liveTenants() {
		name := t.Config().Name
		rep.Tenants++
		rep.CancelledInDrain += t.cancelled.Load()
		if !t.exclusive(s.cfg.DrainTimeout) {
			if firstErr == nil {
				firstErr = fmt.Errorf("server: tenant %q still busy at shutdown audit", name)
			}
			continue
		}
		if machine := t.currentVM(); machine != nil {
			machine.Collect()
			if findings := machine.Verify(); len(findings) > 0 {
				if rep.AuditViolations == nil {
					rep.AuditViolations = make(map[string]int)
				}
				rep.AuditViolations[name] = len(findings)
				if firstErr == nil {
					firstErr = fmt.Errorf("server: tenant %q final audit found %d violations: %s",
						name, len(findings), findings[0])
				}
			}
		}
		t.closePipeline()
		t.release()
	}
	s.logf("shutdown complete: %d tenants, drained cleanly=%v, cancelled=%d",
		rep.Tenants, rep.DrainedCleanly, rep.CancelledInDrain)
	return rep, firstErr
}

func isPanicErr(err error) bool {
	_, ok := err.(*RequestPanicError)
	return ok
}

func isCancelErr(err error) bool {
	_, ok := err.(*RequestCancelledError)
	return ok
}
