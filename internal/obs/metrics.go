package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value metric dimension.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing uint64. All methods are safe on a
// nil receiver (no-ops / zero), which is the disabled-observability path.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value (0 on nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a signed instantaneous value. Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value (0 on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets delimited by a sorted
// slice of upper bounds. Buckets are half-open on the upper side:
//
//	bucket 0 counts              v < bounds[0]
//	bucket i counts bounds[i-1] <= v < bounds[i]
//	bucket len(bounds) counts    v >= bounds[len(bounds)-1]   (overflow)
//
// so an observation exactly equal to a bound lands in the bucket ABOVE it.
// Nil-safe like Counter.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Uint64
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.counts[h.Bucket(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Bucket returns the index of the bucket Observe counts v in (0 on nil).
func (h *Histogram) Bucket(v uint64) int {
	i := 0
	if h != nil {
		for i < len(h.bounds) && v >= h.bounds[i] {
			i++
		}
	}
	return i
}

// AddBatch records observations tallied elsewhere, merged once instead of
// three shared adds per value: counts[i] more in bucket i (indexed as Bucket
// does, len(Bounds())+1 entries), their values adding up to sum. The
// histogram ends up exactly as if each had been Observed.
func (h *Histogram) AddBatch(counts []uint64, sum uint64) {
	if h == nil {
		return
	}
	var n uint64
	for i, c := range counts {
		if c != 0 {
			h.counts[i].Add(c)
			n += c
		}
	}
	h.sum.Add(sum)
	h.count.Add(n)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// BucketCounts returns a snapshot of the per-bucket counts
// (len(bounds)+1 entries, last is the overflow bucket). Nil on nil.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Bounds returns the configured upper bounds (nil on nil receiver).
func (h *Histogram) Bounds() []uint64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// Shared bucket layouts used by the runtime's instrumentation points.
var (
	// DurationBucketsNs covers 1µs .. 1s in decades, for GC phase times
	// and safepoint stop latencies.
	DurationBucketsNs = []uint64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	// ByteBuckets covers 64B .. 1MiB in powers of four, for pruned-object
	// sizes.
	ByteBuckets = []uint64{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	// StaleAgeBuckets gives one bucket per staleness level 0..7 (the
	// per-object stale counter saturates at 8), so each level is counted
	// exactly.
	StaleAgeBuckets = []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	// LatencyBucketsNs covers 4µs .. ~17s in powers of two — fine enough
	// (~1.5× between adjacent quantile estimates) for the p50/p95/p99
	// request-latency aggregation on /pressure, and wide enough to hold a
	// request that rode out a watchdog deadline.
	LatencyBucketsNs = latencyBuckets()
)

func latencyBuckets() []uint64 {
	out := make([]uint64, 0, 23)
	for b := uint64(1) << 12; b <= 1<<34; b <<= 1 {
		out = append(out, b)
	}
	return out
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

type metricEntry struct {
	name   string
	help   string
	kind   metricKind
	labels []Label

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds registered metrics in registration order. Registration
// takes a mutex; reads and updates of the metrics themselves are lock-free
// atomics. A nil *Registry hands out nil metrics, making every downstream
// site a single nil check.
type Registry struct {
	mu      sync.Mutex
	entries []*metricEntry
	index   map[string]*metricEntry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metricEntry)}
}

func metricKey(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
	}
	return b.String()
}

// register returns the existing entry for (name, labels) or installs a new
// one built by mk. Re-registering the same series with a different kind
// panics: that is a programming error, not a runtime condition.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, mk func(e *metricEntry)) *metricEntry {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.index[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, e.kind))
		}
		return e
	}
	e := &metricEntry{name: name, help: help, kind: kind, labels: append([]Label(nil), labels...)}
	mk(e)
	r.index[key] = e
	r.entries = append(r.entries, e)
	return e
}

// NewCounter registers (or finds) a counter series. Returns nil on a nil
// registry.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	e := r.register(name, help, kindCounter, labels, func(e *metricEntry) {
		e.counter = &Counter{}
	})
	return e.counter
}

// NewGauge registers (or finds) a gauge series. Returns nil on a nil
// registry.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	e := r.register(name, help, kindGauge, labels, func(e *metricEntry) {
		e.gauge = &Gauge{}
	})
	return e.gauge
}

// NewHistogram registers (or finds) a histogram series with the given
// sorted upper bounds. Returns nil on a nil registry.
func (r *Registry) NewHistogram(name, help string, bounds []uint64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
	e := r.register(name, help, kindHistogram, labels, func(e *metricEntry) {
		h := &Histogram{bounds: append([]uint64(nil), bounds...)}
		h.counts = make([]atomic.Uint64, len(h.bounds)+1)
		e.hist = h
	})
	return e.hist
}

// escapeLabelValue applies Prometheus text-format escaping to a label
// value: backslash, double-quote, and newline.
func escapeLabelValue(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// unescapeLabelValue inverts escapeLabelValue. Unknown escapes are kept
// verbatim (backslash included), matching Prometheus parser behaviour.
func unescapeLabelValue(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case '"':
				b.WriteByte('"')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func writeLabels(b *strings.Builder, labels []Label, extra ...Label) {
	all := labels
	if len(extra) > 0 {
		all = append(append([]Label(nil), labels...), extra...)
	}
	if len(all) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format. Safe on a nil registry (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := append([]*metricEntry(nil), r.entries...)
	r.mu.Unlock()

	var b strings.Builder
	seen := make(map[string]bool)
	for _, e := range entries {
		if !seen[e.name] {
			seen[e.name] = true
			fmt.Fprintf(&b, "# HELP %s %s\n", e.name, e.help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.name, e.kind)
		}
		switch e.kind {
		case kindCounter:
			b.WriteString(e.name)
			writeLabels(&b, e.labels)
			fmt.Fprintf(&b, " %d\n", e.counter.Load())
		case kindGauge:
			b.WriteString(e.name)
			writeLabels(&b, e.labels)
			fmt.Fprintf(&b, " %d\n", e.gauge.Load())
		case kindHistogram:
			counts := e.hist.BucketCounts()
			var cum uint64
			for i, bound := range e.hist.Bounds() {
				cum += counts[i]
				b.WriteString(e.name)
				b.WriteString("_bucket")
				writeLabels(&b, e.labels, L("le", fmt.Sprintf("%d", bound)))
				fmt.Fprintf(&b, " %d\n", cum)
			}
			cum += counts[len(counts)-1]
			b.WriteString(e.name)
			b.WriteString("_bucket")
			writeLabels(&b, e.labels, L("le", "+Inf"))
			fmt.Fprintf(&b, " %d\n", cum)
			fmt.Fprintf(&b, "%s_sum", e.name)
			writeLabels(&b, e.labels)
			fmt.Fprintf(&b, " %d\n", e.hist.Sum())
			fmt.Fprintf(&b, "%s_count", e.name)
			writeLabels(&b, e.labels)
			fmt.Fprintf(&b, " %d\n", e.hist.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// HistogramSnapshot is the JSON form of a histogram's state.
type HistogramSnapshot struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"` // len(bounds)+1, last is overflow
	Sum    uint64   `json:"sum"`
	Count  uint64   `json:"count"`
}

// MetricSnapshot is the JSON form of one metric series.
type MetricSnapshot struct {
	Name      string             `json:"name"`
	Type      string             `json:"type"`
	Help      string             `json:"help,omitempty"`
	Labels    map[string]string  `json:"labels,omitempty"`
	Value     uint64             `json:"value,omitempty"`
	Gauge     int64              `json:"gauge,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// Snapshot returns a point-in-time copy of every registered series, sorted
// by (name, label set) for stable output. Nil registry returns nil.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := append([]*metricEntry(nil), r.entries...)
	r.mu.Unlock()

	out := make([]MetricSnapshot, 0, len(entries))
	for _, e := range entries {
		m := MetricSnapshot{Name: e.name, Type: e.kind.String(), Help: e.help}
		if len(e.labels) > 0 {
			m.Labels = make(map[string]string, len(e.labels))
			for _, l := range e.labels {
				m.Labels[l.Key] = l.Value
			}
		}
		switch e.kind {
		case kindCounter:
			m.Value = e.counter.Load()
		case kindGauge:
			m.Gauge = e.gauge.Load()
		case kindHistogram:
			m.Histogram = &HistogramSnapshot{
				Bounds: e.hist.Bounds(),
				Counts: e.hist.BucketCounts(),
				Sum:    e.hist.Sum(),
				Count:  e.hist.Count(),
			}
		}
		out = append(out, m)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return fmt.Sprint(out[i].Labels) < fmt.Sprint(out[j].Labels)
	})
	return out
}

// WriteJSON writes the snapshot as an indented JSON document
// {"metrics": [...]}. Safe on a nil registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	doc := struct {
		Metrics []MetricSnapshot `json:"metrics"`
	}{Metrics: r.Snapshot()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
