package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestSummarizeMedianAndQuartiles(t *testing.T) {
	st := summarize([]float64{9, 1, 5, 3, 7}, "s", "lower") // unsorted on purpose
	if st.Value != 5 || st.Q1 != 3 || st.Q3 != 7 || st.Best != 1 || st.N != 5 || st.Unit != "s" {
		t.Errorf("summarize = %+v", st)
	}
	if got := st.spread(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("spread = %v, want 0.8", got)
	}
	even := summarize([]float64{1, 2, 3, 4}, "refs/s", "higher")
	if even.Value != 2.5 || even.Best != 4 {
		t.Errorf("median of four = %v with best %v, want 2.5 and 4", even.Value, even.Best)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{9999, 0.999, false}, {10000, 0.999, true},
		{39, 0.75, false}, {40, 0.75, true},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}
