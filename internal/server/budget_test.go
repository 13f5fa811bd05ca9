package server

import (
	"strings"
	"testing"

	"leakpruning/internal/obs"
)

// TestBudgetLadder drives the pressure controller deterministically
// (manual probes, sequential requests) through every rung: tighten at
// 0.70, force cycles at 0.85, evict the worst offender at 0.95 — and back
// down with hysteresis once the eviction frees the budget.
func TestBudgetLadder(t *testing.T) {
	o := obs.New()
	cfg := testConfig()
	cfg.Budget = 1 << 20 // 1 MiB global budget
	cfg.Obs = o
	s := mustServer(t, cfg)

	// The leaky tenant prunes nothing ("off"): its list grows ~23 KiB per
	// iteration and only an eviction can give the bytes back. The sibling
	// is small and steady.
	if _, err := s.Admit(TenantConfig{Name: "leaky", Workload: "listleak", Policy: "off", HeapLimit: 1 << 20}); err != nil {
		t.Fatalf("admit leaky: %v", err)
	}
	if _, err := s.Admit(TenantConfig{Name: "small", Workload: "listleak", Policy: "default", HeapLimit: 256 << 10}); err != nil {
		t.Fatalf("admit small: %v", err)
	}
	if _, err := s.RunRequest("small", 10); err != nil {
		t.Fatalf("small warmup: %v", err)
	}

	if res := s.ProbeBudget(); res.Level != 0 {
		t.Fatalf("initial probe level = %d, want 0", res.Level)
	}

	// Grow the leak one request at a time, probing after each, and record
	// the ladder's trajectory.
	var sawTighten, sawForce bool
	var evicted string
	for i := 0; i < 60 && evicted == ""; i++ {
		if _, err := s.RunRequest("leaky", 1); err != nil {
			t.Fatalf("leaky request %d: %v (the ladder should evict before the tenant's own OOM)", i, err)
		}
		res := s.ProbeBudget()
		switch res.Level {
		case 1:
			sawTighten = true
			// Level 1 tightened the live threshold on serving tenants.
			if got := s.tenant("leaky").currentVM().NearlyFullFraction(); got != tightenTo {
				t.Fatalf("nearly-full under pressure = %g, want tightened to 0.75", got)
			}
		case 2:
			sawForce = true
			if res.Forced != "leaky" {
				t.Fatalf("level 2 forced %q, want the worst offender leaky", res.Forced)
			}
		case 3:
			if res.Evicted != "leaky" {
				t.Fatalf("level 3 evicted %q, want leaky", res.Evicted)
			}
			evicted = res.Evicted
		}
	}
	if !sawTighten || !sawForce || evicted == "" {
		t.Fatalf("ladder incomplete: tighten=%v force=%v evicted=%q", sawTighten, sawForce, evicted)
	}

	// The slot is gone and its bytes came back.
	if s.tenant("leaky") != nil {
		t.Fatal("evicted tenant still in the table")
	}
	if got := s.mEvictions.Load(); got != 1 {
		t.Fatalf("lp_tenant_evictions_total = %d, want 1", got)
	}

	// Pressure clears (with hysteresis the level can only fall now), and
	// clearing restores the sibling's configured threshold.
	res := s.ProbeBudget()
	if res.Level != 0 {
		t.Fatalf("post-eviction level = %d (fraction %.2f), want 0", res.Level, res.Fraction)
	}
	if got := s.tenant("small").currentVM().NearlyFullFraction(); got != 0.9 {
		t.Fatalf("sibling nearly-full after pressure cleared = %g, want 0.9 restored", got)
	}
	if s.tightened.Load() {
		t.Fatal("tightened flag still set after pressure cleared")
	}

	// The whole episode is visible on /metrics: the ladder gauge and the
	// eviction counter the smoke target scrapes.
	var sb strings.Builder
	o.Registry().WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"lp_budget_pressure_level 0",
		"lp_tenant_evictions_total 1",
		"lp_forced_cycles_total",
		"lp_budget_bytes 1048576",
		`lp_tenant_resident_bytes{tenant="small"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	// The sibling survived the whole episode.
	if _, err := s.RunRequest("small", 5); err != nil {
		t.Fatalf("sibling after eviction: %v", err)
	}
}

// TestLadderHysteresis: a fraction hovering just under a trip point must
// not flap the level once it has stepped up.
func TestLadderHysteresis(t *testing.T) {
	s := mustServer(t, testConfig())
	s.level.Store(2)
	// Just below the force threshold but within the hysteresis band: hold.
	if got := s.nextLevel(forceThreshold - hysteresis/2); got != 2 {
		t.Fatalf("level within hysteresis band = %d, want held at 2", got)
	}
	// Clear of the band: step down one rung at a time.
	if got := s.nextLevel(tightenThreshold + 0.01); got != 1 {
		t.Fatalf("level below force band = %d, want 1", got)
	}
	if got := s.nextLevel(0.1); got != 0 {
		t.Fatalf("level at low fraction = %d, want 0", got)
	}
	// Upward moves are immediate.
	s.level.Store(0)
	if got := s.nextLevel(evictThreshold + 0.01); got != 3 {
		t.Fatalf("level above evict threshold = %d, want 3", got)
	}
}

// TestAllocLocksPerObjectOnMetrics: the allocator's free-list locks per object
// are readable from /metrics per tenant, for the request shape that costs
// the most locks (one short-lived VM thread per request, many requests).
func TestAllocLocksPerObjectOnMetrics(t *testing.T) {
	o := obs.New()
	cfg := testConfig()
	cfg.Budget = 8 << 20
	cfg.Obs = o
	s := mustServer(t, cfg)
	if _, err := s.Admit(TenantConfig{Name: "q", Workload: "queueleak", Policy: "default", HeapLimit: 2 << 20}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := s.RunRequest("q", 1); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			s.ProbeBudget() // counters advance by deltas, probe after probe
		}
	}
	tn := s.tenant("q")
	objects, locks := tn.allocObjects.Load(), tn.allocLocks.Load()
	if hs := tn.currentVM().HeapStats(); objects != hs.ObjectsAlloc || locks != hs.AllocShardLocks {
		t.Fatalf("counters (%d objects, %d locks) disagree with the heap (%d, %d)",
			objects, locks, hs.ObjectsAlloc, hs.AllocShardLocks)
	}
	if objects == 0 || locks == 0 || locks >= objects {
		t.Fatalf("%d free-list locks for %d objects: want well under one lock per object", locks, objects)
	}
	var sb strings.Builder
	o.Registry().WritePrometheus(&sb)
	for _, want := range []string{
		`lp_heap_allocations_total{tenant="q"}`,
		`lp_heap_alloc_shard_locks_total{tenant="q"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
	t.Logf("%d free-list locks / %d objects = %.3f locks per object", locks, objects, float64(locks)/float64(objects))
}
