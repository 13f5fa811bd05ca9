package main

import (
	"fmt"
	"sync"
	"time"

	"leakpruning/internal/obs"
	"leakpruning/internal/server"
)

// The pipeline-isolation scenario: the "fault" injected into the victim
// tenant is CONCURRENCY itself. A control whose victim is the default
// one-worker tenant and a 4-worker victim run the same campaign — a
// 4-goroutine mixed-size request storm at the victim with the per-GC
// invariant audit armed, concurrent with the siblings' fixed deterministic
// schedule — and the oracle is the same as for panic storms and forced
// evictions: zero audit violations in the victim, and sibling per-cycle
// live-set hashes byte-identical to the control's. In-tenant concurrency
// must stay inside the tenant.

const (
	pipelineBudget   = 16 << 20
	pipelineRounds   = 60
	pipelineStormers = 4
	pipelineReqs     = 40 // requests per storm goroutine
	pipelineBigIters = 8
)

// pipelineCell runs one campaign cell: siblings on the fixed schedule,
// the victim under storm — the default tenant (one worker, queue of 16)
// when pipelined is false (the control), four workers and a queue of 32
// when true.
func pipelineCell(seed uint64, pipelined bool) (map[string][]uint64, runRecord, error) {
	rec := runRecord{Workload: "multi-tenant", Scenario: "pipeline-isolation", Seed: seed}
	cfg := server.Config{
		Budget:              pipelineBudget,
		QuarantineThreshold: -1, // storm OOM bursts must not mask the oracle
		RequestTimeout:      30 * time.Second,
		DrainTimeout:        2 * time.Second,
		Obs:                 obs.New(),
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
	victim := server.TenantConfig{Name: "victim", Workload: "queueleak", Policy: "default",
		HeapLimit: 8 << 20, AuditEveryGC: true}
	if pipelined {
		victim.Pipeline = server.PipelineConcurrent
		victim.Workers = 4
		victim.QueueDepth = 32
	}
	if _, err := s.Admit(victim); err != nil {
		return nil, rec, fmt.Errorf("admit victim: %w", err)
	}

	// The storm: mixed small/large requests from concurrent callers.
	// Tenant-isolated victim errors (OOM under pressure, cancellation) are
	// expected traffic; the oracle below is what must hold regardless.
	var wg sync.WaitGroup
	var ok, failed uint64
	var cntMu sync.Mutex
	for w := 0; w < pipelineStormers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < pipelineReqs; i++ {
				iters := 1
				if (seed+uint64(w)*7+uint64(i))%2 == 1 {
					iters = pipelineBigIters
				}
				_, err := s.RunRequest("victim", iters)
				cntMu.Lock()
				if err == nil {
					ok++
				} else {
					failed++
				}
				cntMu.Unlock()
			}
		}(w)
	}
	// The siblings' deterministic drive, concurrent with the storm.
	for round := 0; round < pipelineRounds; round++ {
		for _, name := range []string{leakdSiblingA, leakdSiblingB} {
			if _, err := s.RunRequest(name, 2); err != nil {
				return nil, rec, fmt.Errorf("round %d: sibling %s: %w", round, name, err)
			}
		}
		res := s.ProbeBudget()
		if res.Evicted != "" {
			rec.Evictions++
		}
	}
	wg.Wait()
	if ok == 0 {
		return nil, rec, fmt.Errorf("storm produced no successful victim requests (%d failed)", failed)
	}
	rec.Iterations = int(ok)

	// The audit half of the oracle: every GC in the victim re-proved the
	// heap invariants with the storm in flight.
	vt := s.Tenant("victim")
	if vt == nil {
		return nil, rec, fmt.Errorf("victim missing at end of run")
	}
	vst := vt.Status()
	rec.AuditsRun = vst.AuditsRun
	rec.AuditViolations = vst.AuditViolations

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
		for _, n := range srep.AuditViolations {
			rec.AuditViolations += uint64(n)
		}
	}
	if serr != nil {
		return nil, rec, fmt.Errorf("shutdown: %w", serr)
	}
	rec.Reason = "storm-complete"
	return hashes, rec, nil
}

// runPipelineIsolation drives the scenario across seeds against one
// default-victim control.
func runPipelineIsolation(seeds int, verbose bool) []runRecord {
	if seeds > 3 {
		seeds = 3 // each cell is a full storm campaign; seeds vary only the mix
	}
	var recs []runRecord
	controlHashes, controlRec, err := pipelineCell(1, false)
	if err != nil {
		return []runRecord{{Workload: "multi-tenant", Scenario: "pipeline-isolation-control",
			Seed: 1, Escape: err.Error()}}
	}
	controlRec.Scenario = "pipeline-isolation-control"
	if controlRec.AuditsRun == 0 {
		controlRec.EquivalenceMismatch = "control victim ran no audits; AuditEveryGC did not arm"
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		t0 := time.Now()
		hashes, rec, err := pipelineCell(seed, true)
		rec.DurationMs = float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			rec.Escape = err.Error()
			recs = append(recs, rec)
			continue
		}
		if rec.AuditsRun == 0 {
			rec.EquivalenceMismatch = "pipelined victim ran no audits; the concurrency oracle is vacuous"
		}
		for _, sib := range []string{leakdSiblingA, leakdSiblingB} {
			if mismatch := compareHashes(sib, hashes[sib], controlHashes[sib]); mismatch != "" {
				rec.EquivalenceMismatch = mismatch
				break
			}
		}
		if verbose {
			fmt.Printf("%-20s %-10s seed %2d: %d requests ok, audits=%d violations=%d\n",
				"pipeline-isolation", "daemon", seed, rec.Iterations, rec.AuditsRun, rec.AuditViolations)
		}
		recs = append(recs, rec)
	}
	recs = append(recs, controlRec)
	return recs
}
