package graph

import (
	"bytes"
	"testing"

	"grappolo/internal/par"
)

func benchEdges(n, m int, seed uint64) []Edge {
	rng := par.NewRNG(seed)
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{
			U: int32(rng.Intn(n)), V: int32(rng.Intn(n)), W: 1,
		}
	}
	return edges
}

func BenchmarkFromEdgesSerial(b *testing.B) {
	const n, m = 50000, 400000
	edges := benchEdges(n, m, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := FromEdges(n, edges, 1)
		if g.N() != n {
			b.Fatal("bad build")
		}
	}
}

func BenchmarkFromEdgesParallel(b *testing.B) {
	const n, m = 50000, 400000
	edges := benchEdges(n, m, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := FromEdges(n, edges, 0)
		if g.N() != n {
			b.Fatal("bad build")
		}
	}
}

func BenchmarkNeighborScan(b *testing.B) {
	g := FromEdges(20000, benchEdges(20000, 200000, 2), 0)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for v := 0; v < g.N(); v++ {
			_, wts := g.Neighbors(v)
			for _, w := range wts {
				sink += w
			}
		}
	}
	_ = sink
}

func BenchmarkComputeStats(b *testing.B) {
	g := FromEdges(50000, benchEdges(50000, 400000, 3), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ComputeStats(g)
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	g := FromEdges(50000, benchEdges(50000, 200000, 4), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ConnectedComponents(g)
	}
}

// loadBenchGraph is the load benchmarks' input: 2^18 vertices and 2^20
// random edges with fractional weights, about 2M arcs (a 25 MB binary file).
func loadBenchGraph() *Graph {
	const n = 1 << 18
	edges := benchEdges(n, 4*n, 5)
	rng := par.NewRNG(6)
	for i := range edges {
		edges[i].W = 0.5 + rng.Float64()
	}
	return FromEdges(n, edges, 0)
}

func BenchmarkValidate(b *testing.B) {
	g := loadBenchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBinary(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, loadBenchGraph()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data), int64(len(data)), 0); err != nil {
			b.Fatal(err)
		}
	}
}
