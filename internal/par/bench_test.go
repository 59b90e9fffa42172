package par

import (
	"sync/atomic"
	"testing"
)

func BenchmarkForChunkOverhead(b *testing.B) {
	const n = 1 << 16
	var sink atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForChunk(n, 0, 0, func(lo, hi int) {
			var s int64
			for t := lo; t < hi; t++ {
				s += int64(t)
			}
			sink.Add(s)
		})
	}
}

func BenchmarkForStaticOverhead(b *testing.B) {
	const n = 1 << 16
	var sink atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForStatic(n, 0, func(w, lo, hi int) {
			var s int64
			for t := lo; t < hi; t++ {
				s += int64(t)
			}
			sink.Add(s)
		})
	}
}

func BenchmarkSumFloat64(b *testing.B) {
	const n = 1 << 18
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i % 1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SumFloat64Ctx(v, n, 0, func(v []float64, i int) float64 { return v[i] })
	}
}

func BenchmarkExclusivePrefixSum(b *testing.B) {
	const n = 1 << 20
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(i % 7)
	}
	buf := make([]int64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		ExclusivePrefixSum(buf, 0)
	}
}

func BenchmarkAtomicFloat64Add(b *testing.B) {
	var a Float64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			a.Add(1)
		}
	})
}

func BenchmarkAddFloat64Striped(b *testing.B) {
	cells := make([]float64, 64)
	var idx atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		me := int(idx.Add(1)) % len(cells)
		for pb.Next() {
			AddFloat64(&cells[me], 1)
		}
	})
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
