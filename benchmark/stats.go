package main

import (
	"math"
	"sort"
)

// percentileLadder lists the percentiles the benchmark reports, lowest
// first. A percentile is only trusted when at least minBeyond samples lie
// beyond it (choosing-metrics §1), so a metric named after one rung falls
// back to the highest supportable rung below it on a short sample.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

const minBeyond = 10

// supportedPercentile returns the highest ladder rung <= want that keeps at
// least minBeyond of n samples beyond it, or 50 when even the median does not
// (tiny smoke runs).
func supportedPercentile(n int, want float64) float64 {
	best := 50.0
	for _, p := range percentileLadder {
		if p > want {
			break
		}
		if float64(n)*(100-p)/100 >= minBeyond {
			best = p
		}
	}
	return best
}

// percentile returns the exact nearest-rank percentile of sorted (ascending)
// samples: the smallest value with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// Summary is how every reported value is printed and stored: the median
// across repeats with the spread that says how far to trust it.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// N is the number of per-repeat values behind the median; Samples is the
	// number of raw observations (latencies, iterations) behind each of them.
	N       int `json:"n"`
	Samples int `json:"samples"`
}

// summarize reduces per-repeat values to a Summary. Quartiles use linear
// interpolation between order statistics, which degrades gracefully to the
// single value at n = 1.
func summarize(values []float64, samples int) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := sortedCopy(values)
	q := func(f float64) float64 {
		pos := f * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return Summary{Median: q(0.5), Q1: q(0.25), Q3: q(0.75), Min: s[0], Max: s[len(s)-1], N: len(s), Samples: samples}
}
