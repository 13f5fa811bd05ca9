package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"leakpruning/internal/obs"
)

// TestLatencySLOByLevel drives requests at two ladder levels and checks
// both surfaces of the latency bookkeeping: the per-(tenant, level)
// lp_request_latency_ns series in the registry, and the cross-tenant
// quantile summary /pressure serves under request_latency_by_level.
func TestLatencySLOByLevel(t *testing.T) {
	o := obs.New()
	cfg := testConfig()
	cfg.Obs = o
	s := mustServer(t, cfg)
	if _, err := s.Admit(TenantConfig{Name: "t", Workload: "listleak", Policy: "default", HeapLimit: 256 << 10}); err != nil {
		t.Fatalf("admit: %v", err)
	}

	// No prober runs (ProbeInterval 0), so the level is whatever the test
	// sets: 6 requests complete at level 0, then 3 at level 2.
	want := map[string]uint64{"0": 6, "2": 3}
	start := time.Now()
	for _, lvl := range []int64{0, 2} {
		s.level.Store(lvl)
		for i := uint64(0); i < want[strconv.FormatInt(lvl, 10)]; i++ {
			if _, err := s.RunRequest("t", 2); err != nil {
				t.Fatalf("request at level %d: %v", lvl, err)
			}
		}
	}
	elapsed := time.Since(start).Nanoseconds()

	observed := map[string]*obs.HistogramSnapshot{}
	for _, m := range o.Registry().Snapshot() {
		if m.Name == "lp_request_latency_ns" && m.Labels["tenant"] == "t" {
			observed[m.Labels["level"]] = m.Histogram
		}
	}
	if len(observed) != ladderLevels {
		t.Fatalf("registry has %d lp_request_latency_ns{tenant=t} series, want one per ladder level (%d)",
			len(observed), ladderLevels)
	}
	for lvl, h := range observed {
		if h == nil || h.Count != want[lvl] {
			t.Errorf("lp_request_latency_ns{tenant=t,level=%s} = %+v, want count %d", lvl, h, want[lvl])
		}
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/pressure", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /pressure = %d: %s", rec.Code, rec.Body)
	}
	var body struct {
		ByLevel map[string]LatencySLO `json:"request_latency_by_level"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decode /pressure: %v", err)
	}
	if len(body.ByLevel) != len(want) {
		t.Fatalf("request_latency_by_level = %+v, want exactly levels 0 and 2", body.ByLevel)
	}
	for lvl, n := range want {
		slo, h := body.ByLevel[lvl], observed[lvl]
		if slo.Count != n {
			t.Errorf("level %s count = %d, want %d", lvl, slo.Count, n)
		}
		if !(0 < slo.P50Ns && slo.P50Ns <= slo.P99Ns && slo.P99Ns <= slo.MaxNs) {
			t.Errorf("level %s quantiles out of order: %+v", lvl, slo)
		}
		// The slowest request bounds the mean from above and cannot have
		// taken longer than the whole driving loop.
		if mean := int64(h.Sum / h.Count); slo.MaxNs < mean || slo.MaxNs > elapsed {
			t.Errorf("level %s max %d ns inconsistent with observed mean %d ns / loop %d ns",
				lvl, slo.MaxNs, mean, elapsed)
		}
	}
}
