package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the tail rule: a percentile is reported only when at least
// this many samples lie beyond it, so one outlier cannot set it.
const minBeyond = 10

// samples is a latency distribution in nanoseconds.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

func (s samples) sorted() []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = float64(v)
	}
	sort.Float64s(out)
	return out
}

// median of an unsorted slice (mean of the middle two for even lengths);
// NaN when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean of v; NaN when empty.
func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// percentile returns the nearest-rank p-th percentile of sorted data and
// how many samples lie strictly beyond it; ok reports whether that count
// meets the tail rule. Empty data gives NaN, 0, false.
func percentile(sorted []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0, false
	}
	k := rank(p, n)
	beyond = n - k
	return sorted[k-1], beyond, beyond >= minBeyond
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// tolerance keeps float error in p/100*n (99.9% of 10000 is 9990.000000002)
// from pushing the rank up by one.
func rank(p float64, n int) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(k, 1), n)
}

// minSamplesFor is the smallest sample count at which percentile p meets
// the tail rule.
func minSamplesFor(p float64) int {
	n := 1
	for n-rank(p, n) < minBeyond {
		n++
	}
	return n
}

// quartiles returns Q1, Q2, Q3 with the same interpolation as Python's
// statistics.quantiles(data, n=4) (method "exclusive"). It needs at least
// two values; fewer give NaNs.
func quartiles(v []float64) [3]float64 {
	var q [3]float64
	ld := len(v)
	if ld < 2 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q
}
