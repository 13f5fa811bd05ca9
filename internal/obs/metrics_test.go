package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrentSum checks that concurrent increments from 8
// goroutines sum exactly (run under -race by make race).
func TestCounterConcurrentSum(t *testing.T) {
	cases := []struct {
		name    string
		perG    int
		addSize uint64
	}{
		{"inc-1000", 1000, 0},
		{"inc-4096", 4096, 0},
		{"add-3", 500, 3},
		{"add-17", 200, 17},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			c := reg.NewCounter("lp_test_total", "test counter")
			g := reg.NewGauge("lp_test_gauge", "test gauge")
			const goroutines = 8
			var wg sync.WaitGroup
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < tc.perG; j++ {
						if tc.addSize == 0 {
							c.Inc()
						} else {
							c.Add(tc.addSize)
						}
						g.Add(1)
						g.Add(-1)
					}
				}()
			}
			wg.Wait()
			want := uint64(goroutines * tc.perG)
			if tc.addSize != 0 {
				want *= tc.addSize
			}
			if got := c.Load(); got != want {
				t.Fatalf("counter = %d, want %d", got, want)
			}
			if got := g.Load(); got != 0 {
				t.Fatalf("gauge = %d, want 0", got)
			}
		})
	}
}

// TestHistogramHalfOpenBuckets pins the documented bucket rule: bucket i
// counts bounds[i-1] <= v < bounds[i]; a value equal to a bound lands in
// the bucket above it; values >= the last bound land in the overflow
// bucket.
func TestHistogramHalfOpenBuckets(t *testing.T) {
	cases := []struct {
		name   string
		bounds []uint64
		obs    []uint64
		want   []uint64 // len(bounds)+1
	}{
		{"below-first", []uint64{10, 20}, []uint64{0, 9}, []uint64{2, 0, 0}},
		{"equal-bound-goes-up", []uint64{10, 20}, []uint64{10}, []uint64{0, 1, 0}},
		{"mid-bucket", []uint64{10, 20}, []uint64{11, 19}, []uint64{0, 2, 0}},
		{"last-bound-overflows", []uint64{10, 20}, []uint64{20, 21, 1 << 40}, []uint64{0, 0, 3}},
		{"single-bound", []uint64{8}, []uint64{7, 8, 9}, []uint64{1, 2}},
		{"stale-age-exact", StaleAgeBuckets, []uint64{0, 1, 1, 7, 8, 12}, []uint64{1, 2, 0, 0, 0, 0, 0, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			h := reg.NewHistogram("lp_test_hist", "test", tc.bounds)
			var sum uint64
			for _, v := range tc.obs {
				h.Observe(v)
				sum += v
			}
			got := h.BucketCounts()
			if len(got) != len(tc.want) {
				t.Fatalf("bucket count len = %d, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("bucket[%d] = %d, want %d (all %v)", i, got[i], tc.want[i], got)
				}
			}
			if h.Count() != uint64(len(tc.obs)) || h.Sum() != sum {
				t.Fatalf("count/sum = %d/%d, want %d/%d", h.Count(), h.Sum(), len(tc.obs), sum)
			}
			// The same values tallied privately and merged with AddBatch
			// leave a histogram in the same state as observing them.
			b := reg.NewHistogram("lp_test_hist_batch", "test", tc.bounds)
			tally := make([]uint64, len(tc.bounds)+1)
			for _, v := range tc.obs {
				tally[b.Bucket(v)]++
			}
			b.AddBatch(tally, sum)
			if !reflect.DeepEqual(b.BucketCounts(), got) || b.Count() != h.Count() || b.Sum() != h.Sum() {
				t.Fatalf("AddBatch: %v count %d sum %d, Observe: %v count %d sum %d",
					b.BucketCounts(), b.Count(), b.Sum(), got, h.Count(), h.Sum())
			}
		})
	}
}

// TestHistogramConcurrent hammers one histogram from 8 goroutines under
// -race and checks the total count is exact.
func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("lp_test_hist", "test", DurationBucketsNs)
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			v := seed
			for j := 0; j < perG; j++ {
				v = v*6364136223846793005 + 1442695040888963407
				h.Observe(v % 2e9)
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	if h.Count() != goroutines*perG {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*perG)
	}
	var total uint64
	for _, c := range h.BucketCounts() {
		total += c
	}
	if total != goroutines*perG {
		t.Fatalf("bucket total = %d, want %d", total, goroutines*perG)
	}
}

// TestPrometheusLabelEscaping checks that label values survive an
// escape/unescape round-trip and appear escaped in the exporter output.
func TestPrometheusLabelEscaping(t *testing.T) {
	cases := []struct {
		name, value, escaped string
	}{
		{"plain", "eclipsediff", "eclipsediff"},
		{"quote", `say "hi"`, `say \"hi\"`},
		{"backslash", `a\b`, `a\\b`},
		{"newline", "line1\nline2", `line1\nline2`},
		{"mixed", "q\"\\\n!", `q\"\\\n!`},
		{"unicode", "héllo→", "héllo→"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			esc := escapeLabelValue(tc.value)
			if esc != tc.escaped {
				t.Fatalf("escape(%q) = %q, want %q", tc.value, esc, tc.escaped)
			}
			if got := unescapeLabelValue(esc); got != tc.value {
				t.Fatalf("round-trip(%q) = %q", tc.value, got)
			}
			reg := NewRegistry()
			reg.NewCounter("lp_escape_total", "help", L("program", tc.value)).Inc()
			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			want := `lp_escape_total{program="` + tc.escaped + `"} 1`
			if !strings.Contains(b.String(), want) {
				t.Fatalf("exporter output %q missing %q", b.String(), want)
			}
		})
	}
}

// TestNilSafety pins the disabled path: every method on nil handles must
// be a no-op rather than a panic.
func TestNilSafety(t *testing.T) {
	var o *Obs
	reg := o.Registry()
	tr := o.Tracer()
	if reg != nil || tr != nil {
		t.Fatal("nil Obs must hand out nil components")
	}
	c := reg.NewCounter("x", "")
	g := reg.NewGauge("x", "")
	h := reg.NewHistogram("x", "", DurationBucketsNs)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(-1)
	h.Observe(42)
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 || h.BucketCounts() != nil {
		t.Fatal("nil metrics must read as zero")
	}
	if tid := tr.NewTrack("t"); tid != 0 {
		t.Fatalf("nil tracer opened track %d, want 0", tid)
	}
	tr.Emit(Instant("e", "c", 0, 0))
	if tr.Now() != 0 || tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must read as zero")
	}
	var b strings.Builder
	if err := tr.WriteTrace(&b, false); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryDedup checks that re-registering the same (name, labels)
// returns the same underlying metric.
func TestRegistryDedup(t *testing.T) {
	reg := NewRegistry()
	a := reg.NewCounter("lp_x_total", "", L("mode", "prune"))
	b := reg.NewCounter("lp_x_total", "", L("mode", "prune"))
	other := reg.NewCounter("lp_x_total", "", L("mode", "select"))
	if a != b {
		t.Fatal("same series must dedup to one counter")
	}
	if a == other {
		t.Fatal("different label values must be distinct series")
	}
	a.Inc()
	if b.Load() != 1 || other.Load() != 0 {
		t.Fatal("dedup identity broken")
	}
}
