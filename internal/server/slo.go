package server

// Latency SLO plumbing: every request's end-to-end latency (queue/lock
// wait plus execution) lands in an lp_request_latency_ns histogram
// labeled by tenant and by the budget ladder's level at completion, so
// budget pressure is measured in user-visible tail latency, not just
// resident bytes. /pressure serves the cross-tenant aggregation
// (p50/p95/p99/max per ladder level) from LatencySLOs.

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"leakpruning/internal/obs"
)

// ladderLevels is the number of budget-ladder positions (0 nominal …
// 3 evicting); each gets its own latency series per tenant.
const ladderLevels = 4

// LatencySLO is one ladder level's aggregated request-latency summary on
// /pressure.
type LatencySLO struct {
	Count uint64 `json:"count"`
	P50Ns int64  `json:"p50_ns"`
	P95Ns int64  `json:"p95_ns"`
	P99Ns int64  `json:"p99_ns"`
	MaxNs int64  `json:"max_ns"`
}

// sloState is the server-side half of the latency bookkeeping: the
// per-level series list survives tenant eviction (the histograms live in
// the obs registry anyway), so /pressure keeps the full story.
type sloState struct {
	mu     sync.Mutex
	series [ladderLevels][]*obs.Histogram
	names  map[string]struct{} // tenant names already registered (registry series are idempotent; aggregation must not double-count)
	max    [ladderLevels]atomic.Int64
}

// registerLatencySeries creates (or re-binds) the tenant's per-level
// latency histograms and adds them to the aggregation set exactly once
// per tenant name.
func (s *Server) registerLatencySeries(t *Tenant, name string) {
	for lvl := 0; lvl < ladderLevels; lvl++ {
		t.latency[lvl] = s.reg().NewHistogram("lp_request_latency_ns",
			"request latency by tenant and budget-ladder level", obs.LatencyBucketsNs,
			obs.L("tenant", name), obs.L("level", strconv.Itoa(lvl)))
	}
	s.slo.mu.Lock()
	defer s.slo.mu.Unlock()
	if _, dup := s.slo.names[name]; dup {
		return // re-admission reuses the registry series already aggregated
	}
	s.slo.names[name] = struct{}{}
	for lvl := 0; lvl < ladderLevels; lvl++ {
		s.slo.series[lvl] = append(s.slo.series[lvl], t.latency[lvl])
	}
}

// observeLatency records one finished (or timed-out) request under the
// ladder level current at completion.
func (s *Server) observeLatency(t *Tenant, start time.Time) {
	ns := time.Since(start).Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	lvl := int(s.level.Load())
	if lvl < 0 {
		lvl = 0
	} else if lvl >= ladderLevels {
		lvl = ladderLevels - 1
	}
	t.latency[lvl].Observe(uint64(ns))
	for {
		cur := s.slo.max[lvl].Load()
		if ns <= cur || s.slo.max[lvl].CompareAndSwap(cur, ns) {
			return
		}
	}
}

// LatencySLOs aggregates lp_request_latency_ns across every tenant (past
// and present) into per-ladder-level quantiles. Levels with no samples
// are omitted.
func (s *Server) LatencySLOs() map[string]LatencySLO {
	s.slo.mu.Lock()
	var series [ladderLevels][]*obs.Histogram
	for lvl := 0; lvl < ladderLevels; lvl++ {
		series[lvl] = append([]*obs.Histogram(nil), s.slo.series[lvl]...)
	}
	s.slo.mu.Unlock()

	out := make(map[string]LatencySLO)
	bounds := obs.LatencyBucketsNs
	for lvl := 0; lvl < ladderLevels; lvl++ {
		var counts []uint64
		for _, h := range series[lvl] {
			bc := h.BucketCounts()
			if bc == nil {
				continue
			}
			if counts == nil {
				counts = make([]uint64, len(bc))
			}
			for i, c := range bc {
				counts[i] += c
			}
		}
		var total uint64
		for _, c := range counts {
			total += c
		}
		if total == 0 {
			continue
		}
		max := s.slo.max[lvl].Load()
		out[strconv.Itoa(lvl)] = LatencySLO{
			Count: total,
			P50Ns: bucketQuantile(counts, bounds, total, 0.50, max),
			P95Ns: bucketQuantile(counts, bounds, total, 0.95, max),
			P99Ns: bucketQuantile(counts, bounds, total, 0.99, max),
			MaxNs: max,
		}
	}
	return out
}

// bucketQuantile estimates the q-th quantile from fixed-bucket counts by
// linear interpolation inside the bucket where the cumulative count
// crosses the rank. The observed maximum caps every bucket's upper edge
// (it is the overflow bucket's only edge), so no estimate exceeds it.
func bucketQuantile(counts, bounds []uint64, total uint64, q float64, max int64) int64 {
	rank := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = int64(bounds[i-1])
		}
		hi := max
		if i < len(bounds) && int64(bounds[i]) < max {
			hi = int64(bounds[i])
		}
		if hi < lo {
			hi = lo
		}
		if cum+float64(c) >= rank {
			frac := (rank - cum) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += float64(c)
	}
	return max
}
