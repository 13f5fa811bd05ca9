package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leakpruning/internal/offload"
	"leakpruning/internal/workload"
)

func testConfig() Config {
	return Config{
		Budget:         1 << 20,
		RequestTimeout: 10 * time.Second,
		DrainTimeout:   2 * time.Second,
	}
}

func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Shutdown() })
	return s
}

func wantAdmissionReason(t *testing.T, err error, reason string) {
	t.Helper()
	var ae *AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("got %v (%T), want *AdmissionError reason %q", err, err, reason)
	}
	if ae.Reason != reason {
		t.Fatalf("admission reason %q, want %q (err: %v)", ae.Reason, reason, err)
	}
}

// TestAdmissionControl exercises every typed rejection path: a tenant must
// never reach a VM the budget, the overcommit bound, or its own config
// forbids.
func TestAdmissionControl(t *testing.T) {
	s := mustServer(t, testConfig()) // budget 1 MiB, overcommit 2x

	// Happy path first.
	if _, err := s.Admit(TenantConfig{Name: "a", Workload: "listleak", Policy: "default", HeapLimit: 512 << 10}); err != nil {
		t.Fatalf("admit a: %v", err)
	}

	// A single heap limit larger than the whole budget.
	_, err := s.Admit(TenantConfig{Name: "big", Workload: "listleak", Policy: "default", HeapLimit: 2 << 20})
	wantAdmissionReason(t, err, "budget-exceeded")
	if !IsAdmission(err) {
		t.Fatalf("IsAdmission(%v) = false", err)
	}

	// Name collision.
	_, err = s.Admit(TenantConfig{Name: "a", Workload: "listleak", Policy: "default", HeapLimit: 256 << 10})
	wantAdmissionReason(t, err, "duplicate-name")

	// Unknown policy and unknown workload are config errors, not panics.
	_, err = s.Admit(TenantConfig{Name: "badpol", Workload: "listleak", Policy: "nope", HeapLimit: 256 << 10})
	wantAdmissionReason(t, err, "invalid-config")
	_, err = s.Admit(TenantConfig{Name: "badwl", Workload: "nope", Policy: "default", HeapLimit: 256 << 10})
	wantAdmissionReason(t, err, "invalid-config")
	_, err = s.Admit(TenantConfig{Name: "", Workload: "listleak", Policy: "default", HeapLimit: 256 << 10})
	wantAdmissionReason(t, err, "invalid-config")
	// So is asking for one worker and several at once, or for fewer than none.
	_, err = s.Admit(TenantConfig{Name: "contra", Workload: "listleak", Policy: "default", HeapLimit: 256 << 10,
		Pipeline: PipelineSerial, Workers: 2})
	wantAdmissionReason(t, err, "invalid-config")
	_, err = s.Admit(TenantConfig{Name: "neg", Workload: "listleak", Policy: "default", HeapLimit: 256 << 10, QueueDepth: -1})
	wantAdmissionReason(t, err, "invalid-config")

	// Overcommit: 2x * 1 MiB = 2 MiB bound; 512 KiB committed, so a
	// second 1 MiB fits but a further 1 MiB does not.
	if _, err := s.Admit(TenantConfig{Name: "b", Workload: "listleak", Policy: "default", HeapLimit: 1 << 20}); err != nil {
		t.Fatalf("admit b: %v", err)
	}
	_, err = s.Admit(TenantConfig{Name: "c", Workload: "listleak", Policy: "default", HeapLimit: 1 << 20})
	wantAdmissionReason(t, err, "overcommit-exceeded")

	// Requests to tenants that were never admitted are typed too.
	if _, err := s.RunRequest("ghost", 1); err == nil || !errors.As(err, new(*UnknownTenantError)) {
		t.Fatalf("RunRequest(ghost) = %v, want *UnknownTenantError", err)
	}

	// Draining rejects both admissions and requests.
	if _, err := s.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	_, err = s.Admit(TenantConfig{Name: "late", Workload: "listleak", Policy: "default", HeapLimit: 256 << 10})
	wantAdmissionReason(t, err, "draining")
	_, err = s.RunRequest("a", 1)
	wantAdmissionReason(t, err, "draining")
}

// heldWorkloads numbers TestConcurrentAdmit's throwaway registry entries
// (the workload registry has no unregister, and -count reruns the test).
var heldWorkloads atomic.Int64

// TestConcurrentAdmit: admissions racing each other see one another's name
// reservations (a nil table entry while the VM is built outside the lock).
// None may trip over a reservation, and a reservation's heap counts towards
// the overcommit bound, so together they cannot commit more than it allows.
// One admission is held open inside its reservation window — its workload
// factory blocks — while sixteen more race past it.
func TestConcurrentAdmit(t *testing.T) {
	s := mustServer(t, testConfig()) // budget 1 MiB, overcommit 2x
	held := fmt.Sprintf("held-%d", heldWorkloads.Add(1))
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	if err := workload.Register(held, false, func() workload.Program {
		once.Do(func() { close(entered) })
		<-gate
		p, _ := workload.New("listleak")
		return p
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	heldErr := make(chan error, 1)
	go func() {
		_, err := s.Admit(TenantConfig{Name: "held", Workload: held, Policy: "default", HeapLimit: 1 << 20})
		heldErr <- err
	}()
	<-entered

	// 1 MiB of the 2 MiB bound is reserved: four 256 KiB tenants fit.
	const admits, fit = 16, 4
	errs := make([]error, admits)
	var wg sync.WaitGroup
	for i := 0; i < admits; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Admit(TenantConfig{Name: fmt.Sprintf("t%02d", i), Workload: "listleak",
				Policy: "default", HeapLimit: 256 << 10})
		}(i)
	}
	wg.Wait()
	close(gate)
	if err := <-heldErr; err != nil {
		t.Fatalf("held admission: %v", err)
	}
	admitted := 0
	for _, err := range errs {
		if err == nil {
			admitted++
			continue
		}
		wantAdmissionReason(t, err, "overcommit-exceeded")
	}
	if admitted != fit || len(s.Tenants()) != fit+1 {
		t.Fatalf("%d of %d racing admissions succeeded and %d tenants are hosted, want %d and %d",
			admitted, admits, len(s.Tenants()), fit, fit+1)
	}
	// Every reservation was handed back exactly once: the bound is full,
	// and evicting a small tenant makes room for exactly one more.
	late := TenantConfig{Name: "late", Workload: "listleak", Policy: "default", HeapLimit: 256 << 10}
	_, err := s.Admit(late)
	wantAdmissionReason(t, err, "overcommit-exceeded")
	if _, err := s.EvictTenant(s.Tenants()[1].Name, "test"); err != nil { // [0] is "held"
		t.Fatalf("evict: %v", err)
	}
	if _, err := s.Admit(late); err != nil {
		t.Fatalf("admit after eviction: %v", err)
	}
}

// TestRollingConfigUpdate covers the no-restart reload path: threshold
// changes land on the live VM, invalid updates are rejected atomically,
// and structural changes swap in a fresh validated session.
func TestRollingConfigUpdate(t *testing.T) {
	s := mustServer(t, testConfig())
	tn, err := s.Admit(TenantConfig{Name: "a", Workload: "listleak", Policy: "default", HeapLimit: 512 << 10})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if got := tn.currentVM().NearlyFullFraction(); got != 0.9 {
		t.Fatalf("initial nearly-full %g, want the paper's 0.9", got)
	}

	// In-place: only the threshold changes; the session survives.
	if err := s.UpdateTenant("a", TenantConfig{NearlyFullFraction: 0.8}); err != nil {
		t.Fatalf("in-place update: %v", err)
	}
	if got := tn.currentVM().NearlyFullFraction(); got != 0.8 {
		t.Fatalf("nearly-full after update %g, want 0.8", got)
	}

	// Invalid update: rejected with a typed error, nothing changes.
	err = s.UpdateTenant("a", TenantConfig{Policy: "nope"})
	wantAdmissionReason(t, err, "invalid-config")
	if got := tn.Config().Policy; got != "default" {
		t.Fatalf("policy after rejected update %q, want default", got)
	}
	err = s.UpdateTenant("a", TenantConfig{HeapLimit: 4 << 20})
	wantAdmissionReason(t, err, "budget-exceeded")

	// Structural change (heap limit) swaps the session.
	before := tn.currentVM()
	if err := s.UpdateTenant("a", TenantConfig{HeapLimit: 768 << 10, Policy: "most-stale"}); err != nil {
		t.Fatalf("session-swap update: %v", err)
	}
	if tn.currentVM() == before {
		t.Fatal("session-swap update kept the old VM")
	}
	if got := tn.Config(); got.HeapLimit != 768<<10 || got.Policy != "most-stale" {
		t.Fatalf("config after swap = %+v", got)
	}
	// The swapped session still serves.
	if _, err := s.RunRequest("a", 3); err != nil {
		t.Fatalf("request after swap: %v", err)
	}

	if err := s.UpdateTenant("ghost", TenantConfig{}); !errors.As(err, new(*UnknownTenantError)) {
		t.Fatalf("UpdateTenant(ghost) = %v, want *UnknownTenantError", err)
	}
}

// TestConfigUpdateOfEvictedTenant: a tenant evicted between a config
// update landing and the handler reading its status back is a typed 404,
// not a nil dereference in the handler. The eviction is slotted into that
// window from the update's own closing log line.
func TestConfigUpdateOfEvictedTenant(t *testing.T) {
	cfg := testConfig()
	var s *Server
	cfg.Logf = func(format string, args ...any) {
		if strings.Contains(format, "config updated in place") {
			if _, err := s.EvictTenant("a", "test"); err != nil {
				t.Errorf("evict: %v", err)
			}
		}
	}
	s = mustServer(t, cfg)
	if _, err := s.Admit(TenantConfig{Name: "a", Workload: "listleak", Policy: "default", HeapLimit: 256 << 10}); err != nil {
		t.Fatalf("admit: %v", err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tenants/a/config",
		strings.NewReader(`{"nearly_full_fraction": 0.8}`)))
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "unknown tenant") {
		t.Fatalf("config update of an evicted tenant = %d %s, want 404 unknown tenant", rec.Code, rec.Body)
	}
}

// TestRollingUpdateUnderLoad: rolling updates terminate under continuous
// load. Closed-loop callers hammer one tenant while UpdateTenant alternates
// a heap-limit change (session swap on the same pool) with a worker-count
// change (swap plus reshape). Every update must get the tenant to itself
// within the drain timeout however hard the callers keep arriving, and no
// caller may see an error: requests that arrive during an update wait at
// the gate and run on the new session.
func TestRollingUpdateUnderLoad(t *testing.T) {
	for _, row := range []struct {
		name, pipeline string
		workers        [2]int // the two geometries reshapes alternate between
	}{
		{name: "default", pipeline: "", workers: [2]int{1, 2}},
		{name: "concurrent", pipeline: PipelineConcurrent, workers: [2]int{4, 2}},
	} {
		t.Run(row.name, func(t *testing.T) {
			const callers, updates = 4, 12
			cfg := testConfig()
			cfg.Budget = 64 << 20
			s := mustServer(t, cfg)
			tc := TenantConfig{Name: "a", Workload: "antlr", Policy: "off", HeapLimit: 8 << 20,
				Pipeline: row.pipeline, Workers: row.workers[0]}
			tn, err := s.Admit(tc)
			if err != nil {
				t.Fatalf("admit: %v", err)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := s.RunRequest("a", 5); err != nil {
							t.Errorf("caller saw %v (%T)", err, err)
							return
						}
					}
				}()
			}
			defer func() {
				close(stop)
				wg.Wait()
			}()

			for u := 0; u < updates; u++ {
				// Let the load re-establish itself on the new session first.
				served := tn.requests.Load()
				waitFor(t, 5*time.Second, "callers to keep the tenant busy", func() bool {
					return tn.requests.Load() >= served+callers
				})
				if u%2 == 0 {
					tc.HeapLimit ^= 2 << 20 // 8 MiB <-> 10 MiB
				} else {
					tc.Workers = row.workers[(u/2+1)%2]
				}
				vmBefore := tn.currentVM()
				if err := s.UpdateTenant("a", tc); err != nil {
					t.Fatalf("update %d (%+v): %v", u, tc, err)
				}
				if tn.currentVM() == vmBefore {
					t.Fatalf("update %d kept the old session", u)
				}
				if st := tn.status(); st.Workers != tc.Workers || st.HeapLimit != tc.HeapLimit {
					t.Fatalf("update %d: status workers %d limit %d, want %d/%d", u, st.Workers, st.HeapLimit, tc.Workers, tc.HeapLimit)
				}
			}
			if st := tn.status(); st.Faults != 0 || st.Restarts != 0 || st.Cancelled != 0 {
				t.Fatalf("faults %d, session restarts %d, cancelled %d after %d updates; want none",
					st.Faults, st.Restarts, st.Cancelled, updates)
			}
		})
	}
}

// TestSessionRestartOnOOM: a tenant whose policy cannot avert exhaustion
// dies at its heap limit — scoped to its own session, which the daemon
// restarts so the slot keeps serving.
func TestSessionRestartOnOOM(t *testing.T) {
	s := mustServer(t, testConfig())
	tn, err := s.Admit(TenantConfig{Name: "leaky", Workload: "listleak", Policy: "off", HeapLimit: 128 << 10})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	// listleak leaks ~23 KiB per iteration; 200 iterations vastly exceeds
	// the 128 KiB session heap.
	var sawOOM bool
	for i := 0; i < 5 && !sawOOM; i++ {
		_, err = s.RunRequest("leaky", 200)
		if err != nil {
			sawOOM = true
		}
	}
	if !sawOOM {
		t.Fatal("no OOM after 1000 leaking iterations in a 128 KiB heap")
	}
	if got := tn.restarts.Load(); got == 0 {
		t.Fatalf("session restarts = %d, want >= 1", got)
	}
	if st := tn.State(); st != TenantServing {
		t.Fatalf("tenant state after restart = %v, want serving", st)
	}
	// The fresh session serves normally.
	if _, err := s.RunRequest("leaky", 1); err != nil {
		t.Fatalf("request after restart: %v", err)
	}
}

// postJSON sends body to the daemon's handler and returns the status and
// the decoded JSON response.
func postJSON(t *testing.T, h http.Handler, path, body string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("POST %s: %d with a non-JSON body %q", path, rec.Code, rec.Body)
	}
	return rec.Code, out
}

// TestConfigBodies: both TenantConfig routes take exactly one JSON object
// with known keys under a size cap. Each malformed body is a 4xx with an
// error body — never a 5xx — and changes nothing; a valid one still lands.
func TestConfigBodies(t *testing.T) {
	s := mustServer(t, testConfig())
	h := s.Handler()
	oversized := `{"name":"a","workload":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, route := range []struct {
		path, valid string
		ok          int
	}{
		{"/tenants", `{"name":"a","workload":"listleak","policy":"default","heap_limit":262144}`, http.StatusCreated},
		{"/tenants/a/config", `{"nearly_full_fraction":0.8}`, http.StatusOK},
	} {
		for _, row := range []struct {
			name, body string
			want       int
		}{
			// A misspelt policy key used to admit a tenant with pruning off.
			{"unknown key", `{"name":"a","workload":"listleak","heap_limit":262144,"polcy":"default"}`, http.StatusBadRequest},
			{"trailing object", route.valid + `{}`, http.StatusBadRequest},
			{"oversized", oversized, http.StatusRequestEntityTooLarge},
			{"wrong type", `{"heap_limit":"big"}`, http.StatusBadRequest},
			{"valid", route.valid, route.ok},
		} {
			code, out := postJSON(t, h, route.path, row.body)
			if code != row.want {
				t.Fatalf("POST %s %s: %d %v, want %d", route.path, row.name, code, out, row.want)
			}
			if msg, _ := out["error"].(string); (row.want >= 400) != (msg != "") {
				t.Fatalf("POST %s %s: %d with body %v", route.path, row.name, code, out)
			}
		}
	}
	tenants := s.Tenants()
	if len(tenants) != 1 {
		t.Fatalf("%d tenants hosted, want the one valid admission", len(tenants))
	}
	if tc := s.tenant("a").Config(); tc.Policy != "default" || tc.NearlyFullFraction != 0.8 {
		t.Fatalf("tenant config %+v, want policy default and nearly-full 0.8", tc)
	}
}

// TestMeltTenantAdmission: the disk-offload baseline is admitted with a disk
// of offload.DefaultDiskFactor times its heap and serves requests;
// concurrent marking with it is an invalid config, and a body naming a
// tenant setting that does not exist is rejected rather than ignored.
func TestMeltTenantAdmission(t *testing.T) {
	s := mustServer(t, testConfig())
	h := s.Handler()
	for _, row := range []struct {
		name, body string
		want       int
	}{
		{"melt", `{"name":"m","workload":"listleak","policy":"melt","heap_limit":262144}`, http.StatusCreated},
		{"melt concurrent", `{"name":"mc","workload":"listleak","policy":"melt","heap_limit":262144,"mark_mode":"concurrent"}`,
			http.StatusBadRequest},
		{"gc_workers", `{"name":"g","workload":"listleak","policy":"default","heap_limit":262144,"gc_workers":2}`,
			http.StatusBadRequest},
	} {
		if code, out := postJSON(t, h, "/tenants", row.body); code != row.want {
			t.Fatalf("admit %s: %d %v, want %d", row.name, code, out, row.want)
		}
	}
	if code, out := postJSON(t, h, "/tenants/m/run?iters=20", ""); code != http.StatusOK || out["error"] != nil {
		t.Fatalf("melt request: %d %v", code, out)
	}
	opts, err := s.tenant("m").Config().vmOptions(nil)
	if err != nil || opts.OffloadDisk != offload.DefaultDiskFactor*262144 || opts.GCWorkers != 1 {
		t.Fatalf("melt tenant options: disk %d, %d GC workers (%v)", opts.OffloadDisk, opts.GCWorkers, err)
	}
	if n := len(s.Tenants()); n != 1 {
		t.Fatalf("%d tenants hosted, want only the melt one", n)
	}
}
