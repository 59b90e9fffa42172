package core

import (
	"testing"

	"grappolo/internal/coloring"
	"grappolo/internal/generate"
	"grappolo/internal/graph"
	"grappolo/internal/par"
)

// benchLayouts enumerates the arc layouts every sweep benchmark runs under,
// so split-vs-interleaved deltas come from one process run (the CI box is
// too noisy to compare across invocations).
var benchLayouts = []struct {
	name   string
	layout graph.Layout
}{
	{"split", graph.LayoutSplit},
	{"inter", graph.LayoutInterleaved},
}

// BenchmarkDecideSweep measures the flat-accumulator decide hot loop in
// isolation: one full uncolored sweep per op (every vertex runs decide
// against the previous iteration's snapshot). This is the kernel the paper's
// Fig. 8 attributes most of the clustering time to. The legacy sub-benchmark
// runs a frozen copy of the pre-monomorphization closure-based decide over
// the split layout, so the kernel speedup is measured in-process instead of
// across binaries.
func BenchmarkDecideSweep(b *testing.B) {
	run := func(b *testing.B, layout graph.Layout, sweep func(*phaseState)) {
		g := generate.MustGenerate(generate.RGG, generate.ScaleFromEnv(), 0, 0)
		g.SetLayout(layout, 0)
		st := newPhaseState(g, Options{Resolution: 1}.Defaults(), nil, 0)
		b.ReportMetric(float64(g.N()), "vertices")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(st)
		}
	}
	b.Run("legacy", func(b *testing.B) {
		run(b, graph.LayoutSplit, sweepUncoloredLegacy)
	})
	for _, bl := range benchLayouts {
		b.Run(bl.name, func(b *testing.B) {
			run(b, bl.layout, func(st *phaseState) { st.sweepUncolored(0) })
		})
	}
}

// sweepUncoloredLegacy replays the pre-PR-8 uncolored sweep: the same
// chunking, but the closure-based decide with per-arc atomicity dispatch.
// Kept verbatim as the in-process baseline for BenchmarkDecideSweep/legacy.
func sweepUncoloredLegacy(st *phaseState) {
	copy(st.prev, st.curr)
	st.refreshAggregates(st.prev, 0)
	par.ForChunkPrefixCtx(st, st.g.ArcOffsets()[:st.sweepOwn+1], 0, func(st *phaseState, w, lo, hi int) {
		acc := st.scratch[w]
		for i := lo; i < hi; i++ {
			st.curr[i] = decideLegacy(st, i, st.prev, acc, false, false)
		}
	})
}

func decideLegacy(st *phaseState, i int, membership []int32, acc *par.SparseAccum, atomicAgg, atomicComm bool) int32 {
	g := st.g
	readComm := func(v int32) int32 {
		if atomicComm {
			return atomicLoad32(&membership[v])
		}
		return membership[v]
	}
	ci := readComm(int32(i))
	ki := g.Degree(i)
	nbr, wts := g.Neighbors(i)

	acc.Reset()
	acc.Ensure(ci)
	for t, j := range nbr {
		if int(j) == i {
			continue
		}
		acc.Add(readComm(j), wts[t])
	}

	loadDeg := func(c int32) float64 {
		if atomicAgg {
			return par.LoadFloat64(&st.commDeg[c])
		}
		return st.commDeg[c]
	}
	loadNS := func(c int32) int64 {
		if atomicAgg {
			return atomicLoad64(&st.commNS[c])
		}
		return st.commNS[c]
	}
	sizeOf := func(c int32) int64 {
		if atomicAgg {
			return atomicLoad64(&st.size[c])
		}
		return st.size[c]
	}
	comms := acc.Keys()
	eOwn := acc.Get(ci)
	m := st.m
	best := ci
	bestGain := 0.0
	if st.obj == ObjCPM {
		si := st.nodeSize[i]
		nsOwnLess := loadNS(ci) - si
		for _, ct := range comms[1:] {
			gain := (acc.Get(ct) - eOwn - st.cpmGamma*float64(si)*float64(loadNS(ct)-nsOwnLess)) / m
			switch {
			case gain > bestGain:
				bestGain, best = gain, ct
			case st.minLbl && gain == bestGain && gain > 0 && ct < best:
				best = ct
			}
		}
	} else {
		aOwn := loadDeg(ci) - ki
		for _, ct := range comms[1:] {
			gain := (acc.Get(ct)-eOwn)/m + st.gamma*(2*ki*aOwn-2*ki*loadDeg(ct))/(4*m*m)
			switch {
			case gain > bestGain:
				bestGain, best = gain, ct
			case st.minLbl && gain == bestGain && gain > 0 && ct < best:
				best = ct
			}
		}
	}
	if best == ci || bestGain <= 0 {
		return ci
	}
	if st.minLbl && best > ci && sizeOf(ci) == 1 && sizeOf(best) == 1 {
		return ci
	}
	return best
}

// BenchmarkRebuild measures the coarsening step (§5.5, Fig. 9): a counting
// sort of members, a count pass sizing each row exactly, then a fill pass
// aggregating each row on a flat accumulator straight into the CSR. Each
// call uses throwaway scratch, so B/op is a cold rebuild's allocation.
func BenchmarkRebuild(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, generate.ScaleFromEnv(), 0, 0)
	res := Run(g, Options{MaxPhases: 1, Workers: 0}.Defaults())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rebuild(g, res.Membership, res.NumCommunities, 0)
	}
}

// TestDecideSteadyStateZeroAllocs pins the flat-accumulator invariant the
// refactor exists for: once a phase's scratch pool is allocated, running
// decide over every vertex allocates nothing — under both arc layouts, so
// the monomorphic split and interleaved kernels are gated alike.
func TestDecideSteadyStateZeroAllocs(t *testing.T) {
	for _, bl := range benchLayouts {
		g := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
		g.SetLayout(bl.layout, 1)
		st := newPhaseState(g, Options{Resolution: 1}.Defaults(), nil, 1)
		copy(st.prev, st.curr)
		st.refreshAggregates(st.prev, 1)
		acc := st.scratch[0]
		n := g.N()
		allocs := testing.AllocsPerRun(20, func() {
			for i := 0; i < n; i++ {
				st.curr[i] = st.decide(i, st.prev, acc, false, false)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state decide loop allocates: %v allocs per sweep over %d vertices, want 0", bl.name, allocs, n)
		}
	}
}

func BenchmarkSweepUncolored(b *testing.B) {
	for _, bl := range benchLayouts {
		b.Run(bl.name, func(b *testing.B) {
			g := generate.MustGenerate(generate.RGG, generate.Medium, 0, 0)
			g.SetLayout(bl.layout, 0)
			st := newPhaseState(g, Options{Resolution: 1}.Defaults(), nil, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.sweepUncolored(0)
			}
		})
	}
}

func BenchmarkSweepColored(b *testing.B) {
	for _, bl := range benchLayouts {
		b.Run(bl.name, func(b *testing.B) {
			g := generate.MustGenerate(generate.RGG, generate.Medium, 0, 0)
			g.SetLayout(bl.layout, 0)
			cs := coloring.Parallel(g, 0)
			st := newPhaseState(g, Options{Resolution: 1}.Defaults(), nil, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.sweepColored(cs.Sets, 0)
			}
		})
	}
}

func BenchmarkSweepAsyncPLM(b *testing.B) {
	for _, bl := range benchLayouts {
		b.Run(bl.name, func(b *testing.B) {
			g := generate.MustGenerate(generate.RGG, generate.Medium, 0, 0)
			g.SetLayout(bl.layout, 0)
			st := newPhaseState(g, PLM(0), nil, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.sweepAsync(0)
			}
		})
	}
}

func BenchmarkRebuildParallel(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, generate.Medium, 0, 0)
	res := Run(g, Options{MaxPhases: 1, Workers: 0}.Defaults())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rebuild(g, res.Membership, res.NumCommunities, 0)
	}
}

func BenchmarkVertexFollow(b *testing.B) {
	g := generate.MustGenerate(generate.EuropeOSM, generate.Medium, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = vertexFollow(g, 0, false)
	}
}

func BenchmarkModularityParallelKernel(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, generate.Medium, 0, 0)
	res := Run(g, Options{Workers: 0}.Defaults())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Modularity(g, res.Membership, 1, 0)
	}
}

func BenchmarkFullRunVFColorMedium(b *testing.B) {
	g := generate.MustGenerate(generate.LiveJournal, generate.Medium, 0, 0)
	o := BaselineVFColor(0)
	o.ColoringVertexCutoff = 512
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(g, o)
		if res.Modularity <= 0 {
			b.Fatal("bad run")
		}
	}
}

func BenchmarkAnalyzeCommunities(b *testing.B) {
	g := generate.MustGenerate(generate.MG2, generate.Medium, 0, 0)
	res := Run(g, Options{Workers: 0}.Defaults())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeCommunities(g, res.Membership, 0); err != nil {
			b.Fatal(err)
		}
	}
}
