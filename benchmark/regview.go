package main

import (
	"bytes"
	"encoding/json"

	"leakpruning/internal/obs"
)

// regView indexes one Registry.Snapshot by metric name. Series that share a
// name (one per tenant, per mode, per ladder level) are summed unless a label
// filter picks one out. A view of a nil Obs is empty and reads 0 everywhere.
type regView struct {
	series []obs.MetricSnapshot
}

func snapshotRegistry(o *obs.Obs) regView {
	return regView{series: o.Registry().Snapshot()}
}

func matches(m obs.MetricSnapshot, name string, labels []string) bool {
	if m.Name != name {
		return false
	}
	for i := 0; i+1 < len(labels); i += 2 {
		if m.Labels[labels[i]] != labels[i+1] {
			return false
		}
	}
	return true
}

// counter sums the named counter series; labels are key, value pairs.
func (v regView) counter(name string, labels ...string) float64 {
	var sum float64
	for _, m := range v.series {
		if matches(m, name, labels) {
			sum += float64(m.Value)
		}
	}
	return sum
}

// hist returns the summed sum and count of the named histogram series.
func (v regView) hist(name string, labels ...string) (sum, count float64) {
	for _, m := range v.series {
		if matches(m, name, labels) && m.Histogram != nil {
			sum += float64(m.Histogram.Sum)
			count += float64(m.Histogram.Count)
		}
	}
	return sum, count
}

func (v regView) histMean(name string) float64 {
	sum, count := v.hist(name)
	if count == 0 {
		return 0
	}
	return sum / count
}

// minus subtracts an earlier view's counters and histogram sums, series by
// series, so a window's contribution can be read from a registry that was
// already warm when the window opened.
func (v regView) minus(before regView) regView {
	type key struct{ name, labels string }
	labelKey := func(m obs.MetricSnapshot) key {
		b, _ := json.Marshal(m.Labels) // a map[string]string always marshals
		return key{m.Name, string(b)}
	}
	prev := make(map[key]obs.MetricSnapshot, len(before.series))
	for _, m := range before.series {
		prev[labelKey(m)] = m
	}
	out := regView{series: make([]obs.MetricSnapshot, 0, len(v.series))}
	for _, m := range v.series {
		if p, ok := prev[labelKey(m)]; ok {
			m.Value -= p.Value
			if m.Histogram != nil && p.Histogram != nil {
				h := *m.Histogram
				h.Sum -= p.Histogram.Sum
				h.Count -= p.Histogram.Count
				m.Histogram = &h
			}
		}
		out.series = append(out.series, m)
	}
	return out
}

// traceSpanTotals sums, per span name, the durations (ns) of the complete
// ("X") events in the product's own obs trace. It is how the benchmark reads
// the phases leakd's tenants own the OnGC hook for (gc.remark) without adding
// a span inside the program.
func traceSpanTotals(o *obs.Obs) map[string]float64 {
	var buf bytes.Buffer
	if err := o.Tracer().WriteTrace(&buf, false); err != nil {
		return nil
	}
	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Dur  float64 `json:"dur"` // microseconds
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		return nil
	}
	out := map[string]float64{}
	for _, e := range events {
		if e.Ph == "X" {
			out[e.Name] += e.Dur * 1e3
		}
	}
	return out
}
