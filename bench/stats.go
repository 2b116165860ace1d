package main

import (
	"math"
	"sort"
)

// stat is one reported metric: for a host-time metric the median over
// the timed passes with its quartiles, best pass and sample count, for an
// exact (simulated-time or counted) metric the single value,
// Q1 = Q3 = Best = Value.
type stat struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	// Best is the best pass: the largest sample of a higher-is-better
	// metric, the smallest of a lower-is-better one. Interference from
	// the host only ever slows a pass down, so the best pass is the
	// steadiest estimate of what the simulator itself costs (README,
	// "Observed spreads").
	Best float64 `json:"best"`
	N    int     `json:"n"`
	Unit string  `json:"unit"`
	// Samples are the per-pass values behind a host-time median, in pass
	// order, so a reader can redo the statistics or pair passes up.
	Samples []float64 `json:"samples,omitempty"`
}

// exactStat wraps a value that repeats bit for bit between runs.
func exactStat(v float64, unit string) stat {
	return stat{Value: v, Q1: v, Q3: v, Best: v, N: 1, Unit: unit}
}

// summarize reports the median, quartiles and best of the samples;
// better ("lower" or "higher") says which end is the best.
func summarize(samples []float64, unit, better string) stat {
	if len(samples) == 0 {
		return stat{Unit: unit}
	}
	s := sortedCopy(samples)
	best := s[0]
	if better == "higher" {
		best = s[len(s)-1]
	}
	return stat{
		Value: quantile(s, 0.5),
		Q1:    quantile(s, 0.25),
		Q3:    quantile(s, 0.75),
		Best:  best,
		N:     len(s),
		Unit:  unit,
	}
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure the regression bounds are judged against.
func (s stat) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the order statistics of an
// ascending sample (the "inclusive" method: q=0 is the minimum, q=1 the
// maximum).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the figure is a handful of outliers, not a
// percentile.
const minBeyond = 10

// supported reports whether n samples leave at least minBeyond beyond
// the p-quantile.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= minBeyond
}
