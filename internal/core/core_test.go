package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"grappolo/internal/generate"
	"grappolo/internal/graph"
	"grappolo/internal/par"
	"grappolo/internal/quality"
	"grappolo/internal/seq"
)

func twoCliques() *graph.Graph {
	b := graph.NewBuilder(10)
	for base := 0; base <= 5; base += 5 {
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				b.AddEdge(int32(base+i), int32(base+j), 1)
			}
		}
	}
	b.AddEdge(0, 5, 1)
	return b.Build(2)
}

func smallOpts(workers int) Options {
	o := Baseline(workers)
	o.ColoringVertexCutoff = 1 // tests use tiny graphs; never suppress coloring
	return o
}

func TestRunTwoCliques(t *testing.T) {
	g := twoCliques()
	res := Run(g, smallOpts(4))
	if res.NumCommunities != 2 {
		t.Fatalf("found %d communities, want 2 (membership %v)", res.NumCommunities, res.Membership)
	}
	want := 40.0/42.0 - 0.5
	if math.Abs(res.Modularity-want) > 1e-9 {
		t.Fatalf("Q=%v want %v", res.Modularity, want)
	}
	q := seq.Modularity(g, res.Membership, 1)
	if math.Abs(q-res.Modularity) > 1e-9 {
		t.Fatalf("reported Q=%v but membership scores %v", res.Modularity, q)
	}
}

func TestSingleEdgeSwapPrevented(t *testing.T) {
	// §4.2 case 1: two singlet vertices joined by an edge must merge, not
	// swap. The singlet minimum-label rule forces the higher label to move.
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 1)
	g := b.Build(1)
	res := Run(g, smallOpts(2))
	if res.NumCommunities != 1 {
		t.Fatalf("single edge ended in %d communities, want 1", res.NumCommunities)
	}
}

func TestFourCliqueLocalMaximaEscaped(t *testing.T) {
	// Fig. 2 case 2: a 4-clique starting from singletons. Without the
	// minimum-label heuristic the parallel sweep can settle on two pairs;
	// with it, all vertices converge into one community.
	b := graph.NewBuilder(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(int32(i), int32(j), 1)
		}
	}
	g := b.Build(1)
	res := Run(g, smallOpts(4))
	if res.NumCommunities != 1 {
		t.Fatalf("4-clique ended in %d communities, want 1 (membership %v)",
			res.NumCommunities, res.Membership)
	}
}

func TestUncoloredDeterministicAcrossWorkerCounts(t *testing.T) {
	// §5.4: without coloring the algorithm is stable — same output for any
	// worker count, because decisions are a pure function of the snapshot.
	g := generate.MustGenerate(generate.LiveJournal, generate.Small, 0, 2)
	ref := Run(g, smallOpts(1))
	for _, p := range []int{2, 4, 8} {
		got := Run(g, smallOpts(p))
		// Membership must be bit-identical (the paper's stability claim).
		// The reported modularity is a parallel float reduction whose
		// summation order depends on p, so allow ULP-level noise there.
		for i := range ref.Membership {
			if got.Membership[i] != ref.Membership[i] {
				t.Fatalf("p=%d: membership differs at vertex %d", p, i)
			}
		}
		if math.Abs(got.Modularity-ref.Modularity) > 1e-9 {
			t.Fatalf("p=%d: Q=%v != p=1's %v", p, got.Modularity, ref.Modularity)
		}
	}
}

func TestVFDeterministicAcrossWorkerCounts(t *testing.T) {
	g := generate.MustGenerate(generate.EuropeOSM, generate.Small, 0, 2)
	o1 := BaselineVF(1)
	o8 := BaselineVF(8)
	a, b := Run(g, o1), Run(g, o8)
	if a.Modularity != b.Modularity {
		t.Fatalf("VF runs differ: %v vs %v", a.Modularity, b.Modularity)
	}
	for i := range a.Membership {
		if a.Membership[i] != b.Membership[i] {
			t.Fatalf("membership differs at %d", i)
		}
	}
}

func TestAllVariantsProduceValidPartitions(t *testing.T) {
	for _, in := range []generate.Input{generate.CNR, generate.EuropeOSM, generate.MG1, generate.Channel} {
		g := generate.MustGenerate(in, generate.Small, 0, 4)
		variants := map[string]Options{
			"baseline":     smallOpts(4),
			"vf":           withVF(smallOpts(4)),
			"vfcolor":      withColor(withVF(smallOpts(4))),
			"color":        withColor(smallOpts(4)),
			"balanced":     withBalanced(withColor(smallOpts(4))),
			"balanced-arc": withArcBalance(withColor(smallOpts(4))),
			"balanced-d2":  withBalanced(withD2(withColor(smallOpts(4)))),
			"arc-d2":       withArcBalance(withD2(withColor(smallOpts(4)))),
			"distance2":    withD2(withColor(smallOpts(4))),
			"jp":           withJP(withColor(smallOpts(4))),
			"chain":        withChain(withVF(smallOpts(4))),
		}
		for name, o := range variants {
			res := Run(g, o)
			validatePartition(t, g, res, in, name)
		}
	}
}

func withVF(o Options) Options         { o.VertexFollowing = true; return o }
func withChain(o Options) Options      { o.VFChainCompression = true; return o }
func withColor(o Options) Options      { o.Coloring = ColorMultiPhase; return o }
func withBalanced(o Options) Options   { o.ColorBalance = BalanceVertices; return o }
func withArcBalance(o Options) Options { o.ColorBalance = BalanceArcs; return o }
func withD2(o Options) Options         { o.Distance2Coloring = true; return o }
func withJP(o Options) Options         { o.JonesPlassmann = true; return o }

func validatePartition(t *testing.T, g *graph.Graph, res *Result, in generate.Input, name string) {
	t.Helper()
	if len(res.Membership) != g.N() {
		t.Fatalf("%s/%s: membership length %d != n %d", in, name, len(res.Membership), g.N())
	}
	seen := make(map[int32]bool)
	for v, c := range res.Membership {
		if c < 0 || int(c) >= g.N() {
			t.Fatalf("%s/%s: vertex %d has out-of-range community %d", in, name, v, c)
		}
		seen[c] = true
	}
	if len(seen) != res.NumCommunities {
		t.Fatalf("%s/%s: NumCommunities=%d but %d distinct ids", in, name, res.NumCommunities, len(seen))
	}
	q := seq.Modularity(g, res.Membership, 1)
	if math.Abs(q-res.Modularity) > 1e-9 {
		t.Fatalf("%s/%s: reported Q=%v, recomputed %v", in, name, res.Modularity, q)
	}
	if q < 0 {
		t.Fatalf("%s/%s: negative final modularity %v", in, name, q)
	}
}

func TestParallelQualityComparableToSerial(t *testing.T) {
	// The paper's headline quality claim (Table 2): parallel modularity is
	// higher than or comparable to serial. Allow a small band below.
	for _, in := range []generate.Input{generate.CNR, generate.MG1, generate.RGG, generate.CoPapers} {
		g := generate.MustGenerate(in, generate.Small, 0, 4)
		serial := seq.Run(g, seq.Options{})
		parallel := Run(g, withColor(withVF(smallOpts(4))))
		if parallel.Modularity < serial.Modularity-0.05 {
			t.Fatalf("%s: parallel Q=%.4f far below serial %.4f",
				in, parallel.Modularity, serial.Modularity)
		}
		t.Logf("%-10s serial=%.4f parallel=%.4f", in, serial.Modularity, parallel.Modularity)
	}
}

func TestVFLemma3SingleDegreeMerged(t *testing.T) {
	// After VF preprocessing, every single-degree vertex must share its
	// neighbor's community in the final output (Lemma 3).
	g := generate.MustGenerate(generate.EuropeOSM, generate.Small, 0, 2)
	res := Run(g, BaselineVF(4))
	for i := 0; i < g.N(); i++ {
		nbr, _ := g.Neighbors(i)
		if len(nbr) == 1 && int(nbr[0]) != i {
			if res.Membership[i] != res.Membership[nbr[0]] {
				t.Fatalf("single-degree vertex %d not with neighbor %d", i, nbr[0])
			}
		}
	}
}

func TestVFReducesFirstPhaseVertexCount(t *testing.T) {
	g := generate.MustGenerate(generate.EuropeOSM, generate.Small, 0, 2)
	plain := Run(g, smallOpts(2))
	vf := Run(g, BaselineVF(2))
	if len(plain.Phases) == 0 || len(vf.Phases) == 0 {
		t.Fatal("no phases recorded")
	}
	if vf.Phases[0].VertexCount >= plain.Phases[0].VertexCount {
		t.Fatalf("VF did not shrink phase 1: %d vs %d",
			vf.Phases[0].VertexCount, plain.Phases[0].VertexCount)
	}
}

func TestVFChainCompressionShrinksFurther(t *testing.T) {
	// A long path hanging off a hub: single VF removes only the tip;
	// chain compression removes the whole path.
	b := graph.NewBuilder(0)
	// hub 0 with clique 0-1-2
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 2, 1)
	// chain 0-3-4-5-6
	b.AddEdge(0, 3, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	b.AddEdge(5, 6, 1)
	g := b.Build(1)
	single, _, r1 := vertexFollowChain(g, 2, 1)
	full, _, r2 := vertexFollowChain(g, 2, 64)
	if r1 != 1 {
		t.Fatalf("single VF rounds=%d", r1)
	}
	if r2 <= r1 {
		t.Fatalf("chain compression rounds=%d, want > 1", r2)
	}
	if full.N() >= single.N() {
		t.Fatalf("chain compression left %d vertices vs single VF's %d", full.N(), single.N())
	}
	// The chain 3-4-5-6 collapses from the tip inward into a single pendant
	// meta-vertex. The final merge into hub 0 must NOT happen: there
	// ω(i,j) = 1 < k_i·k_j/2m = 7·3/14, i.e. the negative component of
	// inequality (10) dominates and the recursion stops (§5.3). Remaining:
	// triangle {0,1,2} + collapsed chain = 4 vertices.
	if full.N() != 4 {
		t.Fatalf("chain compressed to %d vertices, want 4", full.N())
	}
}

func TestVFNoSingleDegreeNoop(t *testing.T) {
	// A clique has no single-degree vertices: VF must be a no-op.
	b := graph.NewBuilder(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(int32(i), int32(j), 1)
		}
	}
	g := b.Build(1)
	if _, _, ok := vertexFollow(g, 2, false); ok {
		t.Fatal("VF found single-degree vertices in a clique")
	}
	_, _, rounds := vertexFollowChain(g, 2, 8)
	if rounds != 0 {
		t.Fatalf("chain VF ran %d rounds on a clique", rounds)
	}
}

func TestVFIsolatedPairMergesToMinLabel(t *testing.T) {
	// Two isolated degree-1 vertices joined by an edge point at each other;
	// the pair must merge into one community (min id wins).
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 1)
	g := b.Build(1)
	membership, nc, ok := vertexFollow(g, 2, false)
	if !ok || nc != 1 {
		t.Fatalf("pair merge failed: ok=%v nc=%d %v", ok, nc, membership)
	}
	if membership[0] != membership[1] {
		t.Fatalf("pair split: %v", membership)
	}
}

func TestVFSelfLoopVertexNotMerged(t *testing.T) {
	// Vertex 1 has a self-loop plus an edge to 0: it is a single-NEIGHBOR
	// vertex but not single-degree, so basic VF must not touch it...
	// vertex 2 (plain degree-1) must merge.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 1, 2)
	b.AddEdge(0, 2, 1)
	g := b.Build(1)
	membership, nc, ok := vertexFollow(g, 1, false)
	if !ok {
		t.Fatal("VF found nothing")
	}
	if nc != 2 {
		t.Fatalf("nc=%d want 2 (0+2 merged, 1 alone)", nc)
	}
	if membership[0] != membership[2] || membership[0] == membership[1] {
		t.Fatalf("wrong merge: %v", membership)
	}
}

// coarsenCase is one membership the rebuild reference table coarsens.
type coarsenCase struct {
	name       string
	g          *graph.Graph
	membership []int32
	nc         int
}

// rebuildCases covers the membership shapes the rebuild meets: a Louvain
// phase, a VF merge of degree-1 vertices, and the extremes of community
// size (all singletons, one community, giants next to singletons).
func rebuildCases(t *testing.T) []coarsenCase {
	t.Helper()
	// Medium scale: the smallest whose CSRs outweigh TestRebuildWarmAllocs'
	// byte bound, so a regrown output array cannot hide under it.
	cnr := generate.MustGenerate(generate.CNR, generate.Medium, 0, 4)
	n := cnr.N()
	phase := Run(cnr, Options{MaxPhases: 1, Workers: 4}.Defaults())

	road := generate.MustGenerate(generate.EuropeOSM, generate.Medium, 0, 4)
	vf, vfNC, ok := vertexFollow(road, 1, false)
	if !ok {
		t.Fatal("VF merged nothing on the road graph")
	}

	identity := make([]int32, n)
	for i := range identity {
		identity[i] = int32(i)
	}
	// Three giants share the first 3/5 of the vertices; every other vertex
	// is its own community.
	giants := make([]int32, n)
	cut := 3 * n / 5
	for i := range giants {
		if i < cut {
			giants[i] = int32(i % 3)
		} else {
			giants[i] = int32(3 + i - cut)
		}
	}
	return []coarsenCase{
		{"louvain-phase", cnr, phase.Membership, phase.NumCommunities},
		{"vf-degree1", road, vf, vfNC},
		{"identity", cnr, identity, n},
		{"one-community", cnr, make([]int32, n), 1},
		{"giants-and-singletons", cnr, giants, 3 + n - cut},
	}
}

// assertSameCSR fails unless got and want have equal offsets and adjacency
// and weights equal to a relative 1e-9, or bit for bit when exact.
func assertSameCSR(t *testing.T, got, want *graph.Graph, exact bool) {
	t.Helper()
	if !slices.Equal(got.ArcOffsets(), want.ArcOffsets()) {
		t.Fatalf("offsets differ: n %d/%d arcs %d/%d", got.N(), want.N(), got.ArcCount(), want.ArcCount())
	}
	for i := 0; i < got.N(); i++ {
		na, wa := got.Neighbors(i)
		nb, wb := want.Neighbors(i)
		if !slices.Equal(na, nb) {
			t.Fatalf("row %d adjacency differs: %v vs %v", i, na, nb)
		}
		for k := range wa {
			if exact && wa[k] != wb[k] || math.Abs(wa[k]-wb[k]) > 1e-9*max(1, math.Abs(wb[k])) {
				t.Fatalf("row %d entry %d weight %v, want %v", i, k, wa[k], wb[k])
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("parallel rebuild invalid: %v", err)
	}
}

// TestRebuildMatchesSerialCoarsen pins the parallel rebuild to the serial
// reference: the same CSR at every worker count, bit-identical weights at
// one worker (member order, and so summation order, is then ascending as
// in seq.Coarsen). The reused/ subtests run big → small → big rebuilds
// through one scratch, slot and accumulator pool, as an Engine does across
// phases and runs, so a stale row length, offset or key from a larger run
// would show in a smaller one, and a short regrowth in the next large one.
func TestRebuildMatchesSerialCoarsen(t *testing.T) {
	byName := map[string]coarsenCase{}
	want := map[string]*graph.Graph{}
	for _, tc := range rebuildCases(t) {
		byName[tc.name] = tc
		want[tc.name] = seq.Coarsen(tc.g, tc.membership, tc.nc)
		for _, w := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, w), func(t *testing.T) {
				assertSameCSR(t, rebuild(tc.g, tc.membership, tc.nc, w), want[tc.name], w == 1)
			})
		}
	}
	order := []string{"identity", "one-community", "vf-degree1", "giants-and-singletons", "louvain-phase", "identity"}
	for _, w := range []int{1, 2, 4} {
		var rb rebuildScratch
		var slot graphSlot
		var accs []*par.SparseAccum
		for i, name := range order {
			tc := byName[name]
			accs = growAccums(accs, par.Workers(w, tc.nc), tc.nc, 0)
			got := rebuildInto(&rb, &slot, accs, tc.g, tc.membership, tc.nc, w)
			t.Run(fmt.Sprintf("reused/w%d/%d-%s", w, i, tc.name), func(t *testing.T) {
				assertSameCSR(t, got, want[tc.name], w == 1)
			})
		}
	}
}

// TestRebuildWarmAllocs gates the rebuild's scratch reuse: after one warm
// call on the same shape, rebuildInto allocates nothing at one worker and
// only the fork-join bookkeeping at two — a byte bound, so regrowing any
// O(arcs) buffer fails it (the identity case's CSR alone is far above it).
func TestRebuildWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	for _, tc := range rebuildCases(t) {
		for _, w := range []int{1, 2} {
			var rb rebuildScratch
			var slot graphSlot
			accs := growAccums(nil, par.Workers(w, tc.nc), tc.nc, 0)
			run := func() { rebuildInto(&rb, &slot, accs, tc.g, tc.membership, tc.nc, w) }
			run()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const calls = 4
			for i := 0; i < calls; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			allocs := (after.Mallocs - before.Mallocs) / calls
			bytes := (after.TotalAlloc - before.TotalAlloc) / calls
			if w == 1 && allocs != 0 {
				t.Errorf("%s/w1: warm rebuildInto allocates %d times (%d B) per call, want 0", tc.name, allocs, bytes)
			}
			if bytes >= 64<<10 {
				t.Errorf("%s/w%d: warm rebuildInto allocates %d B per call, want < 64 KiB", tc.name, w, bytes)
			}
		}
	}
}

func TestRenumberParallelMatchesSerial(t *testing.T) {
	// Community ids are always vertex ids of the phase graph, so they are
	// < len(comm) by construction.
	comm := []int32{5, 5, 2, 3, 2, 0}
	a := renumberParallel(comm, 4)
	b := renumberSerial(comm)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mismatch at %d: %v vs %v", i, a, b)
		}
	}
	// Ascending-id dense order: community 0→0, 2→1, 3→2, 5→3.
	want := []int32{3, 3, 1, 2, 1, 0}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("got %v want %v", a, want)
		}
	}
}

func TestSerialRenumberOptionSameResult(t *testing.T) {
	g := generate.MustGenerate(generate.CNR, generate.Small, 0, 4)
	a := Run(g, smallOpts(4))
	o := smallOpts(4)
	o.SerialRenumber = true
	b := Run(g, o)
	if a.Modularity != b.Modularity || a.NumCommunities != b.NumCommunities {
		t.Fatal("serial renumber ablation changed the result")
	}
}

func TestColoredRunValidAndConverges(t *testing.T) {
	for _, in := range []generate.Input{generate.RGG, generate.Channel} {
		g := generate.MustGenerate(in, generate.Small, 0, 4)
		res := Run(g, withColor(smallOpts(4)))
		validatePartition(t, g, res, in, "color")
		coloredPhases := 0
		for _, ph := range res.Phases {
			if ph.Colored {
				coloredPhases++
				if ph.NumColors < 2 {
					t.Fatalf("%s: colored phase with %d colors", in, ph.NumColors)
				}
			}
		}
		if coloredPhases == 0 {
			t.Fatalf("%s: no colored phases despite ColorMultiPhase", in)
		}
	}
}

func TestColoringReducesIterations(t *testing.T) {
	// The design intent of coloring (§6.2): fewer iterations to converge.
	// Verify on the mesh input where the effect is most pronounced.
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 4)
	plain := Run(g, smallOpts(4))
	col := Run(g, withColor(smallOpts(4)))
	if col.TotalIterations > plain.TotalIterations {
		t.Fatalf("coloring increased iterations: %d vs %d",
			col.TotalIterations, plain.TotalIterations)
	}
	t.Logf("iterations: plain=%d colored=%d", plain.TotalIterations, col.TotalIterations)
}

func TestFirstPhaseOnlyColoring(t *testing.T) {
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 4)
	o := smallOpts(4)
	o.Coloring = ColorFirstPhase
	res := Run(g, o)
	for pi, ph := range res.Phases {
		if pi == 0 && !ph.Colored {
			t.Fatal("first phase not colored")
		}
		if pi > 0 && ph.Colored {
			t.Fatalf("phase %d colored under ColorFirstPhase", pi)
		}
	}
}

func TestColoringVertexCutoffRespected(t *testing.T) {
	g := generate.MustGenerate(generate.CNR, generate.Small, 0, 4)
	o := withColor(smallOpts(4))
	o.ColoringVertexCutoff = g.N() + 1 // cutoff above n → never color
	res := Run(g, o)
	for _, ph := range res.Phases {
		if ph.Colored {
			t.Fatal("phase colored despite cutoff")
		}
	}
}

func TestModularityGainThresholdEffect(t *testing.T) {
	// Table 5: a higher colored-phase threshold must not increase the
	// iteration count.
	g := generate.MustGenerate(generate.Channel, generate.Small, 0, 4)
	coarse := withColor(smallOpts(4))
	coarse.ColoredThreshold = 1e-2
	fine := withColor(smallOpts(4))
	fine.ColoredThreshold = 1e-4
	rc := Run(g, coarse)
	rf := Run(g, fine)
	if rc.TotalIterations > rf.TotalIterations {
		t.Fatalf("threshold 1e-2 took more iterations (%d) than 1e-4 (%d)",
			rc.TotalIterations, rf.TotalIterations)
	}
	if rc.Modularity < rf.Modularity-0.1 {
		t.Fatalf("coarse threshold modularity collapsed: %v vs %v", rc.Modularity, rf.Modularity)
	}
}

func TestModularityMonotoneUncolored(t *testing.T) {
	g := generate.MustGenerate(generate.CNR, generate.Small, 0, 4)
	res := Run(g, smallOpts(4))
	for pi, ph := range res.Phases {
		for k := 1; k < len(ph.Modularity); k++ {
			// Lemma 1 says monotonicity is NOT guaranteed in parallel, but
			// the heuristics are designed to keep progress positive in
			// practice; a large sustained drop signals a bug.
			if ph.Modularity[k] < ph.Modularity[k-1]-0.05 {
				t.Fatalf("phase %d iter %d: modularity dropped %v -> %v",
					pi, k, ph.Modularity[k-1], ph.Modularity[k])
			}
		}
	}
}

func TestMinLabelAblationShowsHeuristicValue(t *testing.T) {
	// Disabling the minimum-label heuristics leaves the algorithm
	// structurally sound but exposes the §4.2 swap pathology: starting from
	// singletons, symmetric vertices oscillate and phases terminate early
	// with far lower modularity. The ablation quantifies the heuristic's
	// contribution.
	g := generate.MustGenerate(generate.CNR, generate.Small, 0, 4)
	o := smallOpts(4)
	o.DisableMinLabel = true
	ablated := Run(g, o)
	// Output must still be structurally valid and consistently scored.
	if len(ablated.Membership) != g.N() {
		t.Fatal("membership length wrong")
	}
	if q := seq.Modularity(g, ablated.Membership, 1); math.Abs(q-ablated.Modularity) > 1e-9 {
		t.Fatalf("reported Q=%v, recomputed %v", ablated.Modularity, q)
	}
	full := Run(g, smallOpts(4))
	if full.Modularity <= ablated.Modularity {
		t.Fatalf("min-label heuristic did not help: with=%v without=%v",
			full.Modularity, ablated.Modularity)
	}
	t.Logf("Q with min-label=%.4f, without=%.4f", full.Modularity, ablated.Modularity)
}

func TestGroundTruthRecoveryOnSBM(t *testing.T) {
	g := generate.MustGenerate(generate.MG1, generate.Small, 0, 4)
	truth, _ := generate.GroundTruth(generate.MG1, generate.Small, 0, 4)
	res := Run(g, withColor(withVF(smallOpts(4))))
	pc, err := quality.ComparePartitions(truth, res.Membership)
	if err != nil {
		t.Fatal(err)
	}
	m := pc.Derive()
	if m.RandIndex < 0.9 {
		t.Fatalf("Rand index vs planted truth %.3f < 0.9 (%+v)", m.RandIndex, m)
	}
	t.Logf("MG1 vs truth: %s", m)
}

func TestEmptyAndTrivialGraphs(t *testing.T) {
	empty := graph.NewBuilder(0).Build(1)
	res := Run(empty, smallOpts(2))
	if res.NumCommunities != 0 || len(res.Membership) != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
	single := graph.NewBuilder(1).Build(1)
	res = Run(single, smallOpts(2))
	if res.NumCommunities != 1 || res.Membership[0] != 0 {
		t.Fatalf("single vertex: %+v", res)
	}
	// Edgeless graph: all singletons, Q = 0.
	edgeless := graph.NewBuilder(5).Build(1)
	res = Run(edgeless, withVF(smallOpts(2)))
	if res.NumCommunities != 5 {
		t.Fatalf("edgeless: %d communities", res.NumCommunities)
	}
}

func TestSelfLoopOnlyGraph(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 0, 3)
	b.AddEdge(1, 1, 2)
	g := b.Build(1)
	res := Run(g, smallOpts(2))
	if res.NumCommunities != 2 {
		t.Fatalf("self-loop-only graph merged: %v", res.Membership)
	}
}

func TestMaxLimitsRespected(t *testing.T) {
	g := generate.MustGenerate(generate.Channel, generate.Small, 0, 4)
	o := smallOpts(4)
	o.MaxIterations = 2
	o.MaxPhases = 1
	res := Run(g, o)
	if len(res.Phases) > 1 {
		t.Fatalf("%d phases despite MaxPhases=1", len(res.Phases))
	}
	if res.Phases[0].Iterations > 2 {
		t.Fatalf("%d iterations despite MaxIterations=2", res.Phases[0].Iterations)
	}
}

func TestTimingBreakdownPopulated(t *testing.T) {
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 4)
	res := Run(g, withColor(withVF(smallOpts(4))))
	if res.Timing.Clustering <= 0 {
		t.Fatal("clustering time not recorded")
	}
	if res.Timing.Coloring <= 0 {
		t.Fatal("coloring time not recorded")
	}
	if res.Timing.Total() < res.Timing.Clustering {
		t.Fatal("total < clustering")
	}
}

func TestModularityHelperAgreesWithSeq(t *testing.T) {
	g := generate.MustGenerate(generate.CNR, generate.Small, 0, 4)
	res := Run(g, smallOpts(4))
	a := Modularity(g, res.Membership, 1, 4)
	b := seq.Modularity(g, res.Membership, 1)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("modularity kernels disagree: %v vs %v", a, b)
	}
}

func TestResolutionParameter(t *testing.T) {
	g := generate.MustGenerate(generate.CoPapers, generate.Small, 0, 4)
	lo := smallOpts(4)
	lo.Resolution = 0.25
	hi := smallOpts(4)
	hi.Resolution = 4
	rl := Run(g, lo)
	rh := Run(g, hi)
	if rh.NumCommunities < rl.NumCommunities {
		t.Fatalf("γ=4 gave %d communities < γ=0.25's %d", rh.NumCommunities, rl.NumCommunities)
	}
}
