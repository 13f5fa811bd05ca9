package main

import (
	"fmt"
	"time"

	"leakpruning/internal/faultinject"
	"leakpruning/internal/obs"
	"leakpruning/internal/server"
)

// The leakd scenarios extend the campaign from one VM to the multi-tenant
// daemon: faults are injected into exactly one tenant (a request-handler
// panic storm, or a leak driven into budget-pressure eviction with the
// drain forced onto its timeout path) and the oracle is crash ISOLATION —
// the sibling tenants' per-cycle live-set hashes must be byte-identical to
// a fault-free control daemon's, with zero invariant-audit violations
// anywhere.
//
// Determinism: the daemon runs with manual budget probes and a fixed
// sequential round-robin request schedule, so control and fault runs issue
// identical request sequences to the sibling VMs; each tenant's VM is
// fully independent, which is exactly the property under test.

const (
	leakdBudget   = 1 << 20
	leakdRounds   = 80 // the victim leaks ~23 KiB/round; eviction trips near round 44
	leakdSiblingA = "sib-a"
	leakdSiblingB = "sib-b"
)

// leakdScenarioNames lists the daemon scenarios in report order.
func leakdScenarioNames() []string {
	return []string{"leakd-evict", "leakd-quarantine", "pipeline-isolation"}
}

// leakdSiblings are the well-behaved tenants whose per-cycle live-set
// hashes the daemon scenarios compare against a fault-free control.
// AuditEveryGC is what makes a tenant log them.
func leakdSiblings() []server.TenantConfig {
	return []server.TenantConfig{
		{Name: leakdSiblingA, Workload: "listleak", Policy: "default", HeapLimit: 256 << 10, AuditEveryGC: true},
		{Name: leakdSiblingB, Workload: "swapleak", Policy: "default", HeapLimit: 256 << 10, AuditEveryGC: true},
	}
}

// leakdCell runs one daemon campaign cell and returns the sibling hash
// logs plus a partially filled record (evictions, quarantines, audits).
func leakdCell(scenarioName string, seed uint64, faulty bool) (map[string][]uint64, runRecord, error) {
	rec := runRecord{Workload: "multi-tenant", Scenario: scenarioName, Seed: seed}
	cfg := server.Config{
		Budget:              leakdBudget,
		QuarantineThreshold: 3,
		RequestTimeout:      30 * time.Second,
		DrainTimeout:        2 * time.Second,
		Obs:                 obs.New(),
	}
	if faulty && scenarioName == "leakd-evict" {
		// Daemon-level stalls on the probe path: bounded delay, no
		// semantic effect allowed.
		inj := faultinject.New(seed)
		inj.Arm(faultinject.BudgetProbeStall, 0.25)
		cfg.Injector = inj
	}
	s, err := server.New(cfg)
	if err != nil {
		return nil, rec, err
	}
	defer s.Shutdown()

	for _, tc := range leakdSiblings() {
		if _, err := s.Admit(tc); err != nil {
			return nil, rec, fmt.Errorf("admit %s: %w", tc.Name, err)
		}
	}
	victim := server.TenantConfig{Name: "victim", Workload: "listleak", HeapLimit: 256 << 10, Policy: "default"}
	if scenarioName == "leakd-evict" {
		// The victim leaks with pruning off and a budget-sized heap: only
		// the pressure ladder can (and must) stop it.
		victim.Policy = "off"
		victim.HeapLimit = leakdBudget
	}
	if faulty {
		inj := faultinject.New(seed)
		switch scenarioName {
		case "leakd-quarantine":
			inj.Arm(faultinject.TenantRequestPanic, 1.0)
		case "leakd-evict":
			inj.Arm(faultinject.EvictDrainTimeout, 1.0)
		}
		victim.DaemonInjector = inj
	}
	if _, err := s.Admit(victim); err != nil {
		return nil, rec, fmt.Errorf("admit victim: %w", err)
	}

	// Fixed schedule: siblings always get their requests; the victim gets
	// one while it still serves. Victim faults are expected traffic.
	for round := 0; round < leakdRounds; round++ {
		for _, name := range []string{leakdSiblingA, leakdSiblingB} {
			if _, err := s.RunRequest(name, 2); err != nil {
				return nil, rec, fmt.Errorf("round %d: sibling %s: %w", round, name, err)
			}
		}
		if st := s.Tenants(); victimServing(st) {
			if _, err := s.RunRequest("victim", 1); err != nil {
				if _, isPanic := err.(*server.RequestPanicError); !isPanic {
					return nil, rec, fmt.Errorf("round %d: victim returned a non-isolated error: %w", round, err)
				}
			}
		}
		res := s.ProbeBudget()
		if res.Evicted != "" {
			rec.Evictions++
		}
	}
	for _, st := range s.Tenants() {
		if st.Name == "victim" && st.State == "quarantined" {
			rec.Quarantines++
		}
	}

	hashes := map[string][]uint64{}
	for _, name := range []string{leakdSiblingA, leakdSiblingB} {
		tn := s.Tenant(name)
		if tn == nil {
			return nil, rec, fmt.Errorf("sibling %s missing at end of run", name)
		}
		hashes[name] = tn.CycleHashes()
		if len(hashes[name]) == 0 {
			return nil, rec, fmt.Errorf("sibling %s ran no collections; the hash oracle is vacuous", name)
		}
	}

	srep, serr := s.Shutdown()
	if srep != nil {
		rec.AuditsRun = uint64(srep.Tenants)
		for _, n := range srep.AuditViolations {
			rec.AuditViolations += uint64(n)
		}
	}
	if serr != nil {
		return nil, rec, fmt.Errorf("shutdown: %w", serr)
	}
	rec.Iterations = leakdRounds
	rec.Reason = "rounds-complete"
	return hashes, rec, nil
}

func victimServing(statuses []server.TenantStatus) bool {
	for _, st := range statuses {
		if st.Name == "victim" {
			return st.State == "serving"
		}
	}
	return false
}

// runLeakdScenarios executes both daemon scenarios across seeds and
// returns their records, comparing each fault run's sibling hashes to the
// fault-free control byte for byte.
func runLeakdScenarios(seeds int, verbose bool) []runRecord {
	if seeds > 5 {
		seeds = 5 // the draw space is tiny; more seeds add runtime, not coverage
	}
	var recs []runRecord
	for _, name := range leakdScenarioNames() {
		if name == "pipeline-isolation" {
			recs = append(recs, runPipelineIsolation(seeds, verbose)...)
			continue
		}
		// One control per scenario: no faults anywhere, same schedule.
		controlHashes, controlRec, err := leakdCell(name, 1, false)
		if err != nil {
			recs = append(recs, runRecord{Workload: "multi-tenant", Scenario: name + "-control",
				Seed: 1, Escape: err.Error()})
			continue
		}
		if name == "leakd-evict" && controlRec.Evictions == 0 {
			controlRec.EquivalenceMismatch = "control never evicted the leaky victim; the scenario is vacuous"
		}
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			t0 := time.Now()
			hashes, rec, err := leakdCell(name, seed, true)
			rec.DurationMs = float64(time.Since(t0).Microseconds()) / 1000
			if err != nil {
				rec.Escape = err.Error()
				recs = append(recs, rec)
				continue
			}
			switch name {
			case "leakd-evict":
				if rec.Evictions != controlRec.Evictions {
					rec.EquivalenceMismatch = fmt.Sprintf("fault run evicted %d tenants, control %d",
						rec.Evictions, controlRec.Evictions)
				}
			case "leakd-quarantine":
				if rec.Quarantines == 0 {
					rec.EquivalenceMismatch = "panic storm never quarantined the victim"
				}
			}
			for _, sib := range []string{leakdSiblingA, leakdSiblingB} {
				if mismatch := compareHashes(sib, hashes[sib], controlHashes[sib]); mismatch != "" {
					rec.EquivalenceMismatch = mismatch
					break
				}
			}
			if verbose {
				fmt.Printf("%-20s %-10s seed %2d: %d rounds, evictions=%d quarantines=%d (audits %d)\n",
					name, "daemon", seed, rec.Iterations, rec.Evictions, rec.Quarantines, rec.AuditsRun)
			}
			recs = append(recs, rec)
		}
		recs = append(recs, controlRec)
	}
	return recs
}

// compareHashes demands byte-identical per-cycle live-set hashes between a
// sibling in the fault run and the same sibling in the control.
func compareHashes(name string, got, want []uint64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("sibling %s ran %d collections, control ran %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("sibling %s live-set hash diverged at cycle %d: %#x vs control %#x",
				name, i, got[i], want[i])
		}
	}
	return ""
}
