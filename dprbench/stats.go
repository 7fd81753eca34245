package main

import (
	"math"
	"sort"
)

// quantile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample, plus how many samples lie strictly above that rank
// — the count that says whether the percentile is worth reporting (the
// highest percentile with at least ten samples beyond it is the one to
// quote). Misses are +Inf entries: they sort last, so a percentile
// that lands on one reads +Inf, which is exactly "missed every limit".
type quantile struct {
	Value  float64
	N      int // sample count
	Beyond int // samples ranked above Value
}

// percentile returns the nearest-rank percentile of sorted (ascending).
func percentile(sorted []float64, p float64) quantile {
	n := len(sorted)
	if n == 0 {
		return quantile{Value: math.NaN()}
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return quantile{Value: sorted[rank-1], N: n, Beyond: n - rank}
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle of xs (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
