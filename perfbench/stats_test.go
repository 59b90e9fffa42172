package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(data, n=4) from Python 3.
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3.2, 1.5, 9.9, 4.4, 7.1}, [3]float64{2.35, 4.4, 8.5}},
	}
	for _, c := range cases {
		got := quartiles(c.data)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
	}
	if q := quartiles([]float64{1}); !math.IsNaN(q[1]) {
		t.Errorf("quartiles of one value = %v, want NaN", q)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestPercentileTailRule(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	v, beyond, ok := percentile(sorted, 90)
	if v != 90 || beyond != 10 || !ok {
		t.Errorf("p90 of 1..100 = %v, %d beyond, ok=%v; want 90, 10, true", v, beyond, ok)
	}
	v, beyond, ok = percentile(sorted, 99)
	if v != 99 || beyond != 1 || ok {
		t.Errorf("p99 of 1..100 = %v, %d beyond, ok=%v; want 99, 1, false", v, beyond, ok)
	}
	if _, beyond, ok := percentile(sorted[:99], 90); beyond != 9 || ok {
		t.Errorf("p90 of 99 samples leaves %d beyond, ok=%v; want 9, false", beyond, ok)
	}
	if _, _, ok := percentile(nil, 50); ok {
		t.Error("percentile of nothing reported ok")
	}
}

func TestMinSamplesFor(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{50, 20}, {90, 100}, {99, 1000}, {99.9, 10000}} {
		if n := minSamplesFor(c.p); n != c.want {
			t.Errorf("minSamplesFor(%v) = %d, want %d", c.p, n, c.want)
		}
		sorted := make([]float64, c.want)
		if _, beyond, ok := percentile(sorted, c.p); !ok || beyond != minBeyond {
			t.Errorf("p%v of %d samples: %d beyond, ok=%v", c.p, c.want, beyond, ok)
		}
		if _, _, ok := percentile(sorted[:c.want-1], c.p); ok {
			t.Errorf("p%v of %d samples passes the tail rule", c.p, c.want-1)
		}
	}
}
