package server

import (
	"time"

	"leakpruning/internal/faultinject"
)

// The pressure controller's parameters.
const (
	// overcommitFactor bounds sum(HeapLimit) <= overcommitFactor * Budget
	// at admission. Heap limits may collectively exceed the budget — that
	// is the bet leak pruning underwrites — but not without bound.
	overcommitFactor = 2
	// tightenThreshold, forceThreshold and evictThreshold are the ladder's
	// resident/budget trip points. Each level includes the actions of
	// those below it.
	tightenThreshold = 0.70
	forceThreshold   = 0.85
	evictThreshold   = 0.95
	// tightenTo is the NearlyFullFraction pushed onto tenants at ladder
	// level >= 1; their configured value is restored when pressure clears.
	tightenTo = 0.75
	// maxForceRetries bounds the forced-cycle retry-with-backoff loop when
	// a collection reports Degraded.
	maxForceRetries = 3
	// hysteresis is how far below a trip point the resident fraction must
	// fall before the ladder steps back down, so a tenant oscillating
	// around a threshold cannot flap the level (and with it the
	// tighten/restore churn).
	hysteresis = 0.05
)

// ProbeResult reports one budget-pressure probe: what the controller saw
// and which rung of the ladder it acted on.
type ProbeResult struct {
	// Resident is the summed BytesUsed across live tenants.
	Resident uint64 `json:"resident_bytes"`
	// Fraction is Resident / Budget.
	Fraction float64 `json:"fraction"`
	// Level is the ladder level after this probe (0 nominal, 1 tightened,
	// 2 forcing cycles, 3 evicting).
	Level int `json:"level"`
	// Forced names the tenant whose collection was forced at level >= 2.
	Forced string `json:"forced,omitempty"`
	// ForcedDegraded counts forced cycles that came back Degraded and were
	// retried with backoff.
	ForcedDegraded int `json:"forced_degraded,omitempty"`
	// Evicted names the tenant evicted at level 3.
	Evicted string `json:"evicted,omitempty"`
	// Stalled records a BudgetProbeStall injection firing on this probe.
	Stalled bool `json:"stalled,omitempty"`
}

// ProbeBudget runs one step of the budget-pressure controller: sum
// resident bytes across tenants, publish the gauges, then walk the
// degradation ladder off the published values. Each level includes the
// levels below it:
//
//	level 1: tighten every serving tenant's OBSERVE → SELECT threshold to
//	         tightenTo, engaging pruning earlier than the paper's 0.9;
//	level 2: additionally force a full SELECT/PRUNE collection on the
//	         worst offender, retrying with backoff when the cycle reports
//	         Degraded (serial-fallback) instead of trusting a bad cycle;
//	level 3: additionally evict the worst offender — drain, final forced
//	         collection, invariant audit, slot released.
//
// Tests call it directly (ProbeInterval 0) so every ladder transition is
// deterministic; cmd/leakd runs it on a ticker.
func (s *Server) ProbeBudget() ProbeResult {
	s.mProbes.Inc()
	var res ProbeResult
	if s.cfg.Injector.Should(faultinject.BudgetProbeStall) {
		// A stalled probe must delay the controller, never wedge it: the
		// stall is bounded and the probe then proceeds with fresh numbers.
		res.Stalled = true
		time.Sleep(500 * time.Microsecond)
	}

	// Publish, then read back: the ladder is driven by the same obs gauges
	// an operator watches, so /metrics can never disagree with the
	// controller's inputs.
	tenants := s.liveTenants()
	var resident uint64
	for _, t := range tenants {
		if t.State() == TenantEvicted {
			continue // between its last state store and leaving the table
		}
		var bytes uint64
		if machine := t.currentVM(); machine != nil {
			hs := machine.HeapStats()
			bytes = hs.BytesUsed
			t.publishAllocTotals(machine, hs)
		}
		t.residentGauge.Set(int64(bytes))
		if t.residentGauge != nil {
			// Observability on: read back through the gauge so the ladder's
			// input IS the exported number, never a private shadow of it.
			bytes = uint64(t.residentGauge.Load())
		}
		resident += bytes
	}
	s.gResident.Set(int64(resident))
	if s.gResident != nil {
		resident = uint64(s.gResident.Load())
	}
	res.Resident = resident
	res.Fraction = float64(res.Resident) / float64(s.cfg.Budget)

	res.Level = s.nextLevel(res.Fraction)
	s.level.Store(int64(res.Level))
	s.gPressure.Set(int64(res.Level))

	switch {
	case res.Level >= 1:
		s.tightenAll(tenants)
	case s.tightened.Load():
		s.restoreAll(tenants)
	}
	if res.Level >= 2 {
		if worst := worstOffender(tenants); worst != nil {
			res.Forced = worst.Config().Name
			res.ForcedDegraded = s.forceCycle(worst)
		}
	}
	if res.Level >= 3 {
		if worst := worstOffender(tenants); worst != nil {
			name := worst.Config().Name
			if _, err := s.EvictTenant(name, "budget pressure"); err != nil {
				s.logf("pressure eviction of %s failed: %v", name, err)
			} else {
				res.Evicted = name
			}
		}
	}
	return res
}

// nextLevel applies the trip points with downward hysteresis to the
// current level.
func (s *Server) nextLevel(fraction float64) int {
	cur := int(s.level.Load())
	up := 0
	switch {
	case fraction >= evictThreshold:
		up = 3
	case fraction >= forceThreshold:
		up = 2
	case fraction >= tightenThreshold:
		up = 1
	}
	if up >= cur {
		return up
	}
	// Stepping down: require the fraction to clear the old level's trip
	// point by the hysteresis margin, one rung at a time.
	down := cur
	for down > up {
		var trip float64
		switch down {
		case 3:
			trip = evictThreshold
		case 2:
			trip = forceThreshold
		default:
			trip = tightenThreshold
		}
		if fraction >= trip-hysteresis {
			break
		}
		down--
	}
	return down
}

// tightenAll pushes the pressure threshold onto every serving tenant.
// SetNearlyFullFraction is lock-free on the VM side, so this never waits
// on a tenant's requests.
func (s *Server) tightenAll(tenants []*Tenant) {
	if s.tightened.Swap(true) {
		return
	}
	for _, t := range tenants {
		if t.State() != TenantServing {
			continue
		}
		if machine := t.currentVM(); machine != nil {
			if machine.NearlyFullFraction() > tightenTo {
				if err := machine.SetNearlyFullFraction(tightenTo); err != nil {
					s.logf("tighten %s: %v", t.Config().Name, err)
				}
			}
		}
	}
	s.logf("budget pressure: tightened nearly-full fraction to %g", tightenTo)
}

// restoreAll undoes tightenAll once pressure clears, returning each tenant
// to its configured threshold.
func (s *Server) restoreAll(tenants []*Tenant) {
	if !s.tightened.Swap(false) {
		return
	}
	for _, t := range tenants {
		want := t.Config().NearlyFullFraction
		if want == 0 {
			want = 0.9 // the paper's default, restored verbatim
		}
		if machine := t.currentVM(); machine != nil {
			if err := machine.SetNearlyFullFraction(want); err != nil {
				s.logf("restore %s: %v", t.Config().Name, err)
			}
		}
	}
	s.logf("budget pressure cleared: restored nearly-full fractions")
}

// worstOffender picks the live tenant with the most resident bytes — the
// one whose eviction (or forced cycle) buys the most budget back.
func worstOffender(tenants []*Tenant) *Tenant {
	var worst *Tenant
	var worstBytes uint64
	for _, t := range tenants {
		st := t.State()
		if st == TenantEvicting || st == TenantEvicted {
			continue
		}
		b := uint64(t.residentGauge.Load())
		if t.residentGauge == nil {
			if machine := t.currentVM(); machine != nil {
				b = machine.HeapStats().BytesUsed
			}
		}
		if worst == nil || b > worstBytes {
			worst, worstBytes = t, b
		}
	}
	return worst
}

// forceCycle runs a forced full collection on t, retrying with backoff
// when the cycle reports Degraded (the parallel tracer fell back to serial
// after a worker fault): a degraded cycle still freed memory, but pressure
// decisions deserve a clean signal, so the controller retries up to
// maxForceRetries before accepting the degraded result. Returns how many
// degraded cycles were observed.
func (s *Server) forceCycle(t *Tenant) int {
	machine := t.currentVM()
	if machine == nil {
		return 0
	}
	degraded := 0
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		s.mForcedCycles.Inc()
		res := machine.Collect()
		if !res.Degraded {
			return degraded
		}
		degraded++
		if attempt+1 >= maxForceRetries {
			s.logf("forced cycle on %s still degraded after %d attempts", t.Config().Name, attempt+1)
			return degraded
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// probeLoop is the background prober driving ProbeBudget on a ticker until
// Shutdown closes stopProbe.
func (s *Server) probeLoop() {
	defer s.probeWG.Done()
	ticker := time.NewTicker(s.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopProbe:
			return
		case <-ticker.C:
			s.ProbeBudget()
		}
	}
}
