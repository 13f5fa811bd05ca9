package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"testing"
)

func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 8000, want: 99, got: 99}, // batch iterations: 80 beyond p99
		{n: 1050, want: 99, got: 99}, // small requests at C=2: 10.5 beyond
		{n: 999, want: 99, got: 95},  // 9.99 beyond p99 is one too few
		{n: 350, want: 95, got: 95},  // large requests: 17.5 beyond
		{n: 350, want: 99, got: 95},  // p99 of 350 keeps only 3.5
		{n: 199, want: 95, got: 90},
		{n: 40, want: 95, got: 75},
		{n: 20, want: 99, got: 50},
		{n: 3, want: 99, got: 50}, // smoke runs: nothing is supportable, report the median
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n, c.want); got != c.got {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
	}
}

func TestPercentileIsExactNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	s := sortedCopy(xs)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {99.9, 100}, {100, 100}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 100 {
		t.Error("sortedCopy sorted its argument in place")
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 3, 2, 4}, 7)
	want := Summary{Median: 3, Q1: 2, Q3: 4, Min: 1, Max: 5, N: 5, Samples: 7}
	if s != want {
		t.Errorf("summarize = %+v, want %+v", s, want)
	}
	if one := summarize([]float64{2.5}, 1); one.Median != 2.5 || one.Q1 != 2.5 || one.Q3 != 2.5 {
		t.Errorf("summarize of one value = %+v", one)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	// parent [0,100]; children [10,40] and [30,60] overlap, [70,120] sticks
	// out past the parent, [200,210] lies outside it. Covered: [10,60] and
	// [70,100] = 80, so self = 20. The grandchild must not count twice.
	spans := []Span{
		{ID: 0, Parent: -1, Name: "parent", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 30, End: 60},
		{ID: 2, Parent: 0, Name: "b", Start: 10, End: 40},
		{ID: 3, Parent: 0, Name: "c", Start: 70, End: 120},
		{ID: 4, Parent: 0, Name: "d", Start: 200, End: 210},
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := []int64{20, 30, 20, 50, 10, 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestRecorderNilIsTracingOff(t *testing.T) {
	var r *Recorder
	id := r.reserve("x", -1, 0)
	r.finish(id)
	if id != -1 || r.add("y", -1, 0, 0, 1) != -1 || r.snapshot() != nil || r.now() != 0 {
		t.Error("a nil Recorder must record nothing")
	}
}

func TestScheduleDeterminism(t *testing.T) {
	a := scheduleBytes(buildSchedule(7, 2, 4, 1))
	b := scheduleBytes(buildSchedule(7, 2, 4, 1))
	c := scheduleBytes(buildSchedule(8, 2, 4, 1))
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave two different schedules")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
}

// Every seed must schedule the same work: the same number of small and large
// requests per segment, spread over the tenants, whatever the order.
func TestScheduleMixIsExact(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, cs := range buildSchedule(seed, 2, 4, 1) {
			if len(cs.Warmup) != warmupRequests || len(cs.Measured) != requestsPerClient-warmupRequests {
				t.Fatalf("seed %d: %d warm-up + %d measured requests", seed, len(cs.Warmup), len(cs.Measured))
			}
			for _, seg := range [][]Request{cs.Warmup, cs.Measured} {
				large := 0
				perTenant := map[int]int{}
				for _, q := range seg {
					if q.Iters == largeIters {
						large++
					} else if q.Iters != smallIters {
						t.Fatalf("seed %d: request of %d iterations", seed, q.Iters)
					}
					perTenant[q.Tenant]++
				}
				if large != len(seg)/4 {
					t.Errorf("seed %d: %d of %d requests are large, want a quarter", seed, large, len(seg))
				}
				for tenant, n := range perTenant {
					if n != len(seg)/4 {
						t.Errorf("seed %d: tenant %d gets %d of %d requests", seed, tenant, n, len(seg))
					}
				}
			}
		}
	}
}

func TestClassifyEveryFailureKind(t *testing.T) {
	ok := []byte(`{"tenant":"t0","iterations":200}`)
	cases := []struct {
		name   string
		status int
		body   []byte
		err    error
		asked  int
		want   failKind
	}{
		{"success", http.StatusOK, ok, nil, 200, opOK},
		{"transport error", 0, nil, errors.New("connection reset"), 200, failTransport},
		{"shed", http.StatusTooManyRequests, []byte(`{"error":"queue full"}`), nil, 200, failShed},
		{"non-200", http.StatusInternalServerError, []byte(`{"error":"OutOfMemoryError"}`), nil, 200, failStatus},
		{"unknown tenant", http.StatusNotFound, []byte(`{"error":"unknown tenant"}`), nil, 1, failStatus},
		{"garbled body", http.StatusOK, []byte(`<html>`), nil, 1, failBody},
		{"error body", http.StatusOK, []byte(`{"tenant":"t0","iterations":3,"error":"request cancelled"}`), nil, 200, failErrorBody},
		{"short count", http.StatusOK, []byte(`{"tenant":"t0","iterations":199}`), nil, 200, failIterations},
	}
	for _, c := range cases {
		if got := classify(c.status, c.body, c.err, c.asked); got != c.want {
			t.Errorf("%s: classify = %d, want %d", c.name, got, c.want)
		}
	}
}

// A batch repeat that dies before its cap counts the iterations it never ran
// as failed, and they appear in no latency sample.
func TestBatchRepeatThatDiesCountsAsFailed(t *testing.T) {
	n := batchIters / 10
	rep := runBatch(batchSpec{program: "eclipsediff", pruning: false, iters: n}, runConfig{scale: 1})
	if rep.Err == nil || rep.Iters >= n {
		t.Fatalf("eclipsediff without pruning ran %d of %d iterations, err %v; it should exhaust memory", rep.Iters, n, rep.Err)
	}
	if rep.Attempted != n || rep.Failed != n-rep.Iters {
		t.Errorf("attempted %d failed %d, want %d and %d", rep.Attempted, rep.Failed, n, n-rep.Iters)
	}
	if len(rep.Small) != rep.Iters {
		t.Errorf("%d latency samples for %d completed iterations", len(rep.Small), rep.Iters)
	}
	if len(rep.Problems) == 0 {
		t.Error("an early end must be reported as a problem")
	}
	if got := leakControl(); got != nil {
		t.Errorf("leakControl = %v, want the control to pass", got)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	in := WorkloadResult{
		Workload: wLeakPrune, Seed: 3, Traced: false, Repeats: 5, Correct: true, Attempted: 40000,
		Noisy: true, CanaryMsP50: 56.5, CanarySpread: 0.21, WallS: 22.25,
		Problems: []string{"repeat 1: x"},
		Metrics:  map[string]Summary{"iters_per_s": {Median: 1919.66, Q1: 1871.7, Q3: 1952.1, Min: 1823.8, Max: 1984.5, N: 5, Samples: 8000}},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out WorkloadResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the result:\n in %+v\nout %+v", in, out)
	}

	// The contract line has exactly four keys and every end-to-end metric.
	line, err := json.Marshal(contractLine{Correct: true, Attempted: 1, Metrics: contractMetrics(endToEnd, in.Metrics)})
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]json.RawMessage
	if err := json.Unmarshal(line, &generic); err != nil {
		t.Fatal(err)
	}
	if len(generic) != 4 {
		t.Errorf("contract line %s has %d keys, want correct, attempted, failed, metrics", line, len(generic))
	}
	var metrics map[string]Value
	if err := json.Unmarshal(generic["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) || metrics["iters_per_s"] != (Value{1919.66, "1/s"}) {
		t.Errorf("contract metrics = %v", metrics)
	}
}

func TestCompareSets(t *testing.T) {
	set := func(ips, setup float64) ResultSet {
		return ResultSet{Results: []WorkloadResult{{Workload: wLeakPrune, Metrics: map[string]Summary{
			"iters_per_s": {Median: ips}, "setup_s": {Median: setup},
		}}}}
	}
	rows := compareSets(set(2000, 0.001), set(1400, 0.002))
	byMetric := map[string]AARow{}
	for _, r := range rows {
		byMetric[r.Metric] = r
	}
	if r := byMetric["iters_per_s"]; r.Within || r.RelDiff != 0.3 {
		t.Errorf("a 30%% throughput gap is past any bound the contract allows: %+v", r)
	}
	if r := byMetric["setup_s"]; !r.Within {
		t.Errorf("a 1 ms set-up gap is inside the absolute slack: %+v", r)
	}
}

// TestSmoke runs every workload at 1/50 scale, both passes, and checks what
// the acceptance criteria ask of a full run: every metric present, every
// output check green, the parts adding up.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, spans := runWorkload(w, runConfig{seed: 1, scale: 50, traced: traced}, 0)
			t.Logf("%s traced=%v: %.2fs", w.Name, traced, res.WallS)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			if res.Repeats != minRepeats {
				t.Errorf("%s: %d repeats with no time budget, want the floor %d", w.Name, res.Repeats, minRepeats)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				s, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, d.Name)
				}
				if !traced && s.Median <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, s.Median)
				}
			}
			if traced && len(spans) == 0 {
				t.Errorf("%s: the traced pass recorded no spans", w.Name)
			}
		}
	}
}
