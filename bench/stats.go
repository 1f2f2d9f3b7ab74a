package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank p-quantile of ascending xs (NaN when
// empty).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// tail is the highest of p90, p99 and p99.9 that has at least ten samples
// beyond it, with a label naming the percentile and the sample count. With
// fewer than 100 samples no percentile qualifies; p90 is reported and the
// label gives how few samples lie beyond it.
func tail(xs []float64) (float64, string) {
	n := len(xs)
	for _, p := range []struct {
		q    float64
		name string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}} {
		if beyond := n - int(math.Ceil(p.q*float64(n))); beyond >= 10 {
			return quantile(xs, p.q), fmt.Sprintf("%s n=%d", p.name, n)
		}
	}
	return quantile(xs, 0.9), fmt.Sprintf("p90 n=%d (%d beyond)", n, n-int(math.Ceil(0.9*float64(n))))
}

// sortedMs converts durations to ascending milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default exclusive method) computes
// them, so spreads reported here match the ones the acceptance check uses.
// Fewer than two values give all three equal to the one value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
