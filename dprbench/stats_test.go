package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRankWithCounts(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		p         float64
		value     float64
		n, beyond int
	}{
		{50, 50, 100, 50},
		{99, 99, 100, 1},
		{100, 100, 100, 0},
		{0.1, 1, 100, 99},
	} {
		q := percentile(xs, tc.p)
		if q.Value != tc.value || q.N != tc.n || q.Beyond != tc.beyond {
			t.Errorf("p%v = %+v, want value %v n %d beyond %d", tc.p, q, tc.value, tc.n, tc.beyond)
		}
	}
}

func TestPercentileCountsMissesAsInfinite(t *testing.T) {
	// 97 answered queries and 3 misses: p50 is an answer, p99 a miss.
	xs := make([]float64, 0, 100)
	for i := 0; i < 97; i++ {
		xs = append(xs, 1e-4)
	}
	xs = append(xs, math.Inf(1), math.Inf(1), math.Inf(1))
	s := sortedCopy(xs)
	if q := percentile(s, 50); q.Value != 1e-4 {
		t.Errorf("p50 = %v, want 1e-4", q.Value)
	}
	if q := percentile(s, 99); !math.IsInf(q.Value, 1) || q.Beyond != 1 {
		t.Errorf("p99 = %+v, want +Inf with 1 beyond", q)
	}
	if q := percentile(nil, 50); !math.IsNaN(q.Value) || q.N != 0 {
		t.Errorf("empty p50 = %+v, want NaN over 0 samples", q)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v, want 2", m)
	}
	in := []float64{4, 1, 3, 2}
	if m := median(in); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	if in[0] != 4 {
		t.Error("median reordered its input")
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("empty median = %v, want NaN", m)
	}
}
