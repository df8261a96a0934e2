package main

import (
	"math"
	"sort"
)

// summary is one metric of one run: Value is the median of N samples
// (N = 1 for a single reading such as peak RSS), with the extremes and
// quartiles of those samples. Iteration counts are in the single digits,
// so no tail percentile is reported: with fewer than ten samples beyond
// it a percentile is just the maximum, which Max already states.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarize reduces samples to their median, extremes and quartiles. An
// empty sample set summarizes to zero with N = 0.
func summarize(unit string, samples []float64) summary {
	s := summary{Unit: unit, N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Q1, s.Value, s.Q3 = quantile(sorted, 0.25), quantile(sorted, 0.5), quantile(sorted, 0.75)
	return s
}

// single is the summary of one reading.
func single(unit string, v float64) summary { return summarize(unit, []float64{v}) }

// quantile interpolates linearly between the two order statistics around
// rank q·(n−1) of an ascending, non-empty slice.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise a difference has to exceed before it means anything.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Value)
}

// ratio is a/b, and 0 where b is 0 (a counter pair that never ticked).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
