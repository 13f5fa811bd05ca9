// Command leakd is the multi-tenant leak-pruning daemon: it hosts N
// isolated tenant VMs (one heap, pruning policy, and fault budget each)
// behind an HTTP API, governed by a global memory budget whose pressure
// controller walks a degradation ladder — tighten pruning thresholds,
// force SELECT/PRUNE cycles, evict the worst offender — long before any
// tenant's leak can take the process down.
//
// Usage:
//
//	leakd -addr :8080 -budget 8 -tenants good:antlr:default,leak:listleak:off
//	leakd -demo                      # 4-tenant demo workload, self-driven
//	leakd -smoke                     # CI smoke: drive, scrape, assert, exit
//	leakd -soak -duration 60s        # budget-holding soak (one leaky tenant)
//
// Endpoints: GET /healthz, /readyz, /metrics (Prometheus or JSON),
// /tenants, /pressure; POST /tenants (admit), /tenants/{name}/run?iters=N,
// /tenants/{name}/config (rolling update); DELETE /tenants/{name} (evict).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"leakpruning/internal/obs"
	"leakpruning/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		budgetMB = flag.Float64("budget", 4, "global resident budget in MiB")
		tenants  = flag.String("tenants", "", "comma-separated name:workload:policy[:heapKiB] tenants to admit at boot")
		probe    = flag.Duration("probe", 250*time.Millisecond, "budget probe interval")
		duration = flag.Duration("duration", 0, "self-drive the tenants for this long, then shut down (0 = serve forever)")
		demo     = flag.Bool("demo", false, "run the 4-tenant demo mix and self-drive until -duration (default 20s)")
		smoke    = flag.Bool("smoke", false, "CI smoke: demo mix, drive until an eviction, scrape /metrics, assert, exit")
		soak     = flag.Bool("soak", false, "soak: 4 tenants (one leaky), assert resident <= budget on every probe for -duration")
		verbose  = flag.Bool("v", false, "log daemon events")
	)
	flag.Parse()

	budget := uint64(*budgetMB * float64(1<<20))
	cfg := server.Config{
		Budget:        budget,
		ProbeInterval: *probe,
		Obs:           obs.New(),
	}
	if *verbose || *smoke || *soak {
		cfg.Logf = log.Printf
	}
	if *smoke || *soak {
		// Driven modes probe manually so every ladder transition is
		// deterministic and observable between requests.
		cfg.ProbeInterval = 0
	}

	s, err := server.New(cfg)
	if err != nil {
		log.Fatalf("leakd: %v", err)
	}

	specs := *tenants
	if *demo || *smoke || *soak {
		// One leaky tenant with pruning off (only the ladder can save the
		// budget), one tolerated leak being pruned, two steady services.
		quarter := budget / 4
		specs = fmt.Sprintf(
			"leaky:listleak:off:%d,pruned:listleak:default:%d,svc-a:antlr:off:%d,svc-b:fop:off:%d",
			budget>>10, quarter>>10, quarter>>10, quarter>>10)
	}
	boot, err := parseTenants(specs)
	if err != nil {
		log.Fatalf("leakd: -tenants: %v", err)
	}
	for _, tc := range boot {
		if _, err := s.Admit(tc); err != nil {
			log.Fatalf("leakd: admit %s: %v", tc.Name, err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("leakd: listen %s: %v", *addr, err)
	}
	hs := &http.Server{Handler: s.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	log.Printf("leakd: serving %d tenants on %s (budget %d bytes)", len(boot), base, budget)

	exit := 0
	switch {
	case *smoke:
		exit = runSmoke(s, base)
	case *soak:
		d := *duration
		if d == 0 {
			d = 60 * time.Second
		}
		exit = runSoak(s, base, d)
	case *demo || *duration > 0:
		d := *duration
		if d == 0 {
			d = 20 * time.Second
		}
		drive(s, d, nil)
	default:
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("leakd: signal received, draining")
	}

	rep, err := s.Shutdown()
	if err != nil {
		log.Printf("leakd: shutdown: %v", err)
		exit = 1
	}
	if rep != nil {
		out, _ := json.Marshal(rep)
		log.Printf("leakd: shutdown report: %s", out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)
	<-httpDone
	os.Exit(exit)
}

// parseTenants parses "name:workload:policy[:heapKiB]" specs.
func parseTenants(specs string) ([]server.TenantConfig, error) {
	var out []server.TenantConfig
	if specs == "" {
		return out, nil
	}
	for _, spec := range strings.Split(specs, ",") {
		parts := strings.Split(strings.TrimSpace(spec), ":")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf("bad tenant spec %q (want name:workload:policy[:heapKiB])", spec)
		}
		tc := server.TenantConfig{Name: parts[0], Workload: parts[1], Policy: parts[2], HeapLimit: 512 << 10}
		if len(parts) == 4 {
			kib, err := strconv.ParseUint(parts[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad heap size in %q: %v", spec, err)
			}
			tc.HeapLimit = kib << 10
		}
		out = append(out, tc)
	}
	return out, nil
}

// drive round-robins requests across the daemon's tenants for d, probing
// the budget between rounds. Tenant faults (traps, restarts) are expected
// traffic, not driver errors. onProbe, when set, sees every probe result.
func drive(s *server.Server, d time.Duration, onProbe func(server.ProbeResult) error) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for _, st := range s.Tenants() {
			if st.State != "serving" {
				continue
			}
			_, _ = s.RunRequest(st.Name, 2)
		}
		res := s.ProbeBudget()
		if onProbe != nil {
			if err := onProbe(res); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSmoke is the CI gate behind `make leakd-smoke`: drive the demo mix
// until the ladder evicts the leaky tenant, then scrape the daemon's own
// /metrics and /healthz over HTTP and assert the advertised counters.
func runSmoke(s *server.Server, base string) int {
	fail := func(format string, args ...any) int {
		log.Printf("SMOKE FAIL: "+format, args...)
		return 1
	}
	sawEvict := false
	deadline := time.Now().Add(30 * time.Second)
	for !sawEvict && time.Now().Before(deadline) {
		for _, st := range s.Tenants() {
			if st.State == "serving" {
				_, _ = s.RunRequest(st.Name, 2)
			}
		}
		if res := s.ProbeBudget(); res.Evicted != "" {
			log.Printf("leakd: smoke saw eviction of %s at level %d (%.0f%% of budget)",
				res.Evicted, res.Level, 100*res.Fraction)
			sawEvict = true
		}
	}
	if !sawEvict {
		return fail("no eviction within 30s of driving the demo mix")
	}

	metrics, err := get(base + "/metrics")
	if err != nil {
		return fail("scrape /metrics: %v", err)
	}
	for _, want := range []string{
		"lp_tenant_evictions_total 1",
		"lp_budget_pressure_level",
		"lp_resident_bytes",
		"lp_requests_total{outcome=\"ok\"}",
	} {
		if !strings.Contains(metrics, want) {
			return fail("/metrics missing %q", want)
		}
	}
	health, err := get(base + "/healthz")
	if err != nil || !strings.Contains(health, "ok") {
		return fail("/healthz = %q, %v", health, err)
	}
	ready, err := get(base + "/readyz")
	if err != nil || !strings.Contains(ready, "ready") {
		return fail("/readyz = %q, %v", ready, err)
	}
	log.Printf("leakd: smoke ok (eviction observed, metrics and health verified)")
	return 0
}

// runSoak drives the demo mix for d and asserts the budget controller's
// core promise on every probe: resident bytes never exceed the budget,
// with the ladder doing the holding (transitions visible as obs counters).
func runSoak(s *server.Server, base string, d time.Duration) int {
	var probes, overBudget, evictions int
	maxLevel := 0
	err := drive(s, d, func(res server.ProbeResult) error {
		probes++
		if res.Resident > s.Budget() {
			overBudget++
			return fmt.Errorf("resident %d exceeded budget %d at probe %d", res.Resident, s.Budget(), probes)
		}
		if res.Level > maxLevel {
			maxLevel = res.Level
		}
		if res.Evicted != "" {
			evictions++
		}
		// Keep a leaky tenant in the mix so pressure cycles for the whole
		// soak. Admission is refused at ladder level 3, so the replacement
		// lands on the first probe after pressure clears.
		hasLeaky := false
		for _, st := range s.Tenants() {
			if strings.HasPrefix(st.Name, "leaky") {
				hasLeaky = true
				break
			}
		}
		if !hasLeaky && res.Level < 3 {
			_, _ = s.Admit(server.TenantConfig{
				Name:      fmt.Sprintf("leaky-%d", evictions),
				Workload:  "listleak",
				Policy:    "off",
				HeapLimit: s.Budget(),
			})
		}
		return nil
	})
	if err != nil {
		log.Printf("SOAK FAIL: %v", err)
		return 1
	}
	if maxLevel < 3 || evictions == 0 {
		log.Printf("SOAK FAIL: ladder never reached eviction (max level %d, %d evictions in %d probes)",
			maxLevel, evictions, probes)
		return 1
	}
	metrics, gerr := get(base + "/metrics")
	if gerr != nil || !strings.Contains(metrics, "lp_tenant_evictions_total") {
		log.Printf("SOAK FAIL: /metrics scrape: %v", gerr)
		return 1
	}
	// The "pruned" tenant runs the default pruning policy, so a full soak
	// must have driven normal, SELECT, and PRUNE cycles; /pressure's
	// per-mode worst-case pauses are the operator's view of that.
	pressure, gerr := get(base + "/pressure")
	if gerr != nil {
		log.Printf("SOAK FAIL: /pressure scrape: %v", gerr)
		return 1
	}
	var pr struct {
		MaxPauseByMode map[string]int64             `json:"max_pause_ns_by_mode"`
		LatencyByLevel map[string]server.LatencySLO `json:"request_latency_by_level"`
	}
	if jerr := json.Unmarshal([]byte(pressure), &pr); jerr != nil {
		log.Printf("SOAK FAIL: /pressure decode: %v", jerr)
		return 1
	}
	for _, mode := range []string{"normal", "select", "prune"} {
		if pr.MaxPauseByMode[mode] <= 0 {
			log.Printf("SOAK FAIL: /pressure max_pause_ns_by_mode[%q] = %d; every cycle mode must pause at least once",
				mode, pr.MaxPauseByMode[mode])
			return 1
		}
	}
	// The latency SLO ledger must have tracked the soak's pressure cycling:
	// serving at baseline (level 0) with a sane p99, and at least one
	// degraded ladder level with requests attributed to it — otherwise the
	// per-level breakdown is decoration, not an SLO.
	l0, ok := pr.LatencyByLevel["0"]
	if !ok || l0.Count == 0 || l0.P99Ns <= 0 {
		log.Printf("SOAK FAIL: /pressure request_latency_by_level[\"0\"] = %+v; baseline requests must be tracked", l0)
		return 1
	}
	if l0.P99Ns > int64(30*time.Second) {
		log.Printf("SOAK FAIL: level-0 request p99 %v is beyond any plausible SLO", time.Duration(l0.P99Ns))
		return 1
	}
	degraded := uint64(0)
	for level, slo := range pr.LatencyByLevel {
		if level != "0" {
			degraded += slo.Count
		}
	}
	if degraded == 0 {
		log.Printf("SOAK FAIL: no requests attributed to degraded ladder levels despite max level %d", maxLevel)
		return 1
	}
	log.Printf("leakd: soak ok — %d probes over %v, 0 over budget, max ladder level %d, %d evictions, per-mode pauses %v, level-0 p99 %v over %d requests (%d degraded-level requests)",
		probes, d, maxLevel, evictions, pr.MaxPauseByMode, time.Duration(l0.P99Ns), l0.Count, degraded)
	return 0
}

func get(url string) (string, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return string(b), fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return string(b), nil
}
