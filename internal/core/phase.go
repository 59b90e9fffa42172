package core

import (
	"context"

	"grappolo/internal/graph"
	"grappolo/internal/par"
)

// phaseState carries the per-phase working arrays of Algorithm 1. Under the
// Engine one phaseState instance is recycled across phases and runs: reset
// re-slices every array to the phase's vertex count, growing backing storage
// only past the high-water mark, so a warmed Engine runs phases without
// allocating. Loop bodies receive the state as an explicit pointer context
// (par.ForChunkCtx et al.) instead of capturing it, which keeps the
// single-worker paths allocation-free.
type phaseState struct {
	g        *graph.Graph
	m        float64   // sum of edge weights (paper's m)
	m2       float64   // total weight 2m, hoisted so reductions skip the per-element g.TotalWeight() load
	curr     []int32   // C_curr: community of each vertex
	prev     []int32   // C_prev: snapshot used for uncolored sweeps
	commDeg  []float64 // a_C, atomically maintained during colored sweeps
	size     []int64   // |C|, for the singlet minimum-label rule
	gamma    float64
	minLbl   bool // generalized minimum-label tie-break enabled
	obj      Objective
	cpmGamma float64
	nodeSize []int64 // original-vertex count per (meta-)vertex (CPM only)
	inter    bool    // g carries an interleaved arc array; sweeps use it
	pref     bool    // graph is big enough for row prefetch hints to pay
	commNS   []int64 // Σ nodeSize per community (CPM only; nil ⇒ modularity)
	nsBuf    []int64 // pooled backing for commNS (which must stay nil-able)
	// scratch holds one neighbor-community accumulator per worker, grown in
	// place and reused across every sweep, iteration, phase and run, so the
	// decide loop is allocation-free in steady state (§5.5: the per-vertex
	// map was the dominant clustering cost). Engine.rebuild borrows the same
	// pool for its row aggregation between phases.
	scratch []*par.SparseAccum
	// colorPrefix caches, per color set, the arc prefix sum that drives
	// arc-balanced chunking in colored sweeps. Sets and OutDegree are
	// immutable for the whole phase, so it is built once on the first
	// colored sweep and reused by every later iteration. prefixBuf is the
	// pooled backing array for all sets.
	colorPrefix [][]int64
	prefixBuf   []int64
	prefixReady bool
	// arcEvenSets marks that the phase's coloring was arc-rebalanced: the
	// sets are even by total arc count by construction, so the colored sweep
	// skips both the colorPrefix build and per-set arc chunking and uses
	// plain dynamic count chunks (the ROADMAP's "consume rebalanced sets
	// directly" item).
	arcEvenSets bool
	// sweepOwn bounds the vertices uncolored sweeps may MOVE: vertices in
	// [sweepOwn, n) are pinned — they contribute to community aggregates and
	// attract neighbors but never change community. reset sets it to n
	// (everything movable); Engine.SweepSeeded narrows it to freeze a ghost
	// suffix, which is how a shard clusters its own vertices against frozen
	// images of other shards' boundary vertices.
	sweepOwn int
	// aggF/aggI are pooled reduction buffers for the modularity (a_C) and
	// CPM (node-size) scoring kernels, zeroed per use.
	aggF []float64
	aggI []int64
	// transient loop-body inputs (set immediately before the loops that read
	// them; carried here so the captureless bodies reach them via the state
	// pointer).
	refreshFrom []int32   // refreshAggregates input assignment
	curSet      []int32   // sweepColored's current color set
	mergeSets   [][]int32 // sweepColored's current run of merged small sets
	prefixSets  [][]int32 // colorPrefix build input sets
	// ctx/cancel carry the owning run's cooperative cancellation (nil when
	// the run is not cancellable — standalone states and plain Run/RunInto).
	// ctx is polled at the barriers between sweeps and color sets; the
	// latched cancel flag is what sweep bodies observe once per chunk, so
	// the per-vertex hot loops stay branch-free.
	ctx    context.Context
	cancel *par.Cancel
}

// stop polls the owning run's cancellation source (see stopRequested): a
// latched flag first — one atomic load, the form the per-chunk checks
// inside sweep bodies take after the first hit — then the context, which
// latches the flag for everyone else.
func (st *phaseState) stop() bool {
	return stopRequested(st.ctx, st.cancel)
}

// reset prepares st for one phase over g, recycling every buffer.
func (st *phaseState) reset(g *graph.Graph, opts Options, nodeSize []int64, workers int) {
	n := g.N()
	st.g = g
	st.m = g.M()
	st.m2 = g.TotalWeight()
	st.curr = par.Resize(st.curr, n)
	st.prev = par.Resize(st.prev, n)
	st.commDeg = par.Resize(st.commDeg, n)
	st.size = par.Resize(st.size, n)
	st.gamma = opts.Resolution
	st.minLbl = !opts.DisableMinLabel
	st.obj = opts.Objective
	st.cpmGamma = opts.CPMGamma
	st.inter = g.Arcs() != nil
	st.pref = n >= prefetchMinVertices
	st.nodeSize, st.commNS = nil, nil
	if st.obj == ObjCPM {
		st.nodeSize = nodeSize
		st.nsBuf = par.Resize(st.nsBuf, n)
		st.commNS = st.nsBuf
	}
	st.prefixReady = false
	st.arcEvenSets = false
	st.sweepOwn = n
	// One accumulator per effective worker: community ids live in [0, n),
	// and a vertex can touch at most OutDegree+1 distinct communities (the
	// key list grows amortized past that on coarser graphs).
	st.scratch = growAccums(st.scratch, par.Workers(workers, n), n, g.MaxOutDegree()+1)
	par.ForChunkCtx(st, n, workers, 0, func(st *phaseState, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			st.curr[i] = int32(i)
			st.commDeg[i] = st.g.Degree(i)
			st.size[i] = 1
			if st.commNS != nil {
				st.commNS[i] = st.nodeSize[i]
			}
		}
	})
}

// growAccums returns pool holding at least nw accumulators, each over at
// least universe keys; new ones start with room for maxKeys touched keys.
func growAccums(pool []*par.SparseAccum, nw, universe, maxKeys int) []*par.SparseAccum {
	for len(pool) < nw {
		pool = append(pool, par.NewSparseAccum(universe, maxKeys))
	}
	for _, a := range pool[:nw] {
		a.Grow(universe)
	}
	return pool
}

// newPhaseState allocates a standalone phase state (tests, benchmarks, and
// the exported Modularity kernel); the Engine recycles one via reset.
func newPhaseState(g *graph.Graph, opts Options, nodeSize []int64, workers int) *phaseState {
	st := &phaseState{}
	st.reset(g, opts, nodeSize, workers)
	return st
}

// refreshAggregates recomputes a_C and |C| (and the CPM node-size sums)
// from the given assignment (prev for uncolored iterations, curr before a
// colored sweep).
func (st *phaseState) refreshAggregates(from []int32, workers int) {
	n := st.g.N()
	if par.Workers(workers, n) == 1 {
		// Single effective worker (small graph or 1-P run): the atomic
		// scatter adds below would execute in exactly ascending-i order
		// anyway, so a plain serial pass computes bit-identical aggregates
		// without paying a CAS per vertex. On a 1-core host this takes a
		// measurable slice off every sweep (aggregates refresh each sweep).
		for i := 0; i < n; i++ {
			st.commDeg[i] = 0
			st.size[i] = 0
			if st.commNS != nil {
				st.commNS[i] = 0
			}
		}
		for i := 0; i < n; i++ {
			c := from[i]
			st.commDeg[c] += st.g.Degree(i)
			st.size[c]++
			if st.commNS != nil {
				st.commNS[c] += st.nodeSize[i]
			}
		}
		return
	}
	st.refreshFrom = from
	par.ForChunkCtx(st, n, workers, 0, func(st *phaseState, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			st.commDeg[i] = 0
			st.size[i] = 0
			if st.commNS != nil {
				st.commNS[i] = 0
			}
		}
	})
	par.ForChunkCtx(st, n, workers, 0, func(st *phaseState, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			c := st.refreshFrom[i]
			par.AddFloat64(&st.commDeg[c], st.g.Degree(i))
			atomicAdd64(&st.size[c], 1)
			if st.commNS != nil {
				atomicAdd64(&st.commNS[c], st.nodeSize[i])
			}
		}
	})
	st.refreshFrom = nil
}

// decide computes vertex i's new community per Eqs. (4)–(5) with the
// minimum-label heuristics of §5.1. membership is the array decisions read
// (prev for uncolored sweeps, curr for colored/async ones); atomicAgg
// selects whether community aggregates are read with atomic loads (colored
// sweeps mutate them concurrently); atomicComm additionally reads the
// membership itself atomically (async mode, where adjacent vertices move
// concurrently).
//
// It is a thin dispatcher kept for tests and out-of-loop callers: the sweep
// bodies call the MONOMORPHIC per-mode kernels below directly, so the per-arc
// hot loops carry no atomicity branches and no closure dispatch. Every
// kernel is a pure restructuring of the historical single-function decide —
// identical arc visit order, identical float expressions — so decisions stay
// bit-identical across kernels and arc layouts.
//
//grappolo:hotpath
func (st *phaseState) decide(i int, membership []int32, acc *par.SparseAccum, atomicAgg, atomicComm bool) int32 {
	switch {
	case atomicComm:
		return st.decideAsync(i, membership, acc)
	case atomicAgg:
		return st.decideLive(i, membership, acc)
	default:
		return st.decideSnap(i, membership, acc)
	}
}

// decideSnap is decide for uncolored snapshot sweeps: plain membership and
// aggregate reads (no other vertex mutates them during the sweep).
//
//grappolo:hotpath
func (st *phaseState) decideSnap(i int, membership []int32, acc *par.SparseAccum) int32 {
	var ci int32
	if st.inter {
		ci = st.accumSnapInter(i, membership, acc)
	} else {
		ci = st.accumSnapSplit(i, membership, acc)
	}
	if st.obj == ObjCPM {
		return st.bestCPMPlain(i, ci, acc)
	}
	return st.bestModPlain(i, ci, acc)
}

// decideLive is decide for colored sweeps: memberships are stable (no two
// same-set vertices are adjacent) but community aggregates mutate under
// concurrent applyMove, so they are read atomically. Unlike the sequential
// sweeps, colored sweeps visit vertices in color-set order — each row is a
// short RANDOM segment of the arc arrays, so the packed 16-byte stream only
// pulls ~33% more cache lines per row without any sequential-stream payoff
// (measured: interleaved loses ~10% on the medium RGG colored sweep while
// winning the uncolored one). Live decides therefore always read the split
// CSR, which is retained under either layout; results are identical because
// both layouts hold the same arcs in the same order.
//
//grappolo:hotpath
func (st *phaseState) decideLive(i int, membership []int32, acc *par.SparseAccum) int32 {
	ci := st.accumSnapSplit(i, membership, acc)
	if st.obj == ObjCPM {
		return st.bestCPMAtomic(i, ci, acc)
	}
	return st.bestModAtomic(i, ci, acc)
}

// decideAsync is decide for asynchronous live-state sweeps: adjacent
// vertices move concurrently, so memberships AND aggregates are read
// atomically.
//
//grappolo:hotpath
func (st *phaseState) decideAsync(i int, membership []int32, acc *par.SparseAccum) int32 {
	var ci int32
	if st.inter {
		ci = st.accumAsyncInter(i, membership, acc)
	} else {
		ci = st.accumAsyncSplit(i, membership, acc)
	}
	if st.obj == ObjCPM {
		return st.bestCPMAtomic(i, ci, acc)
	}
	return st.bestModAtomic(i, ci, acc)
}

// prefetchMinVertices gates the row prefetch hints: below this many
// vertices the membership array (4 B/vertex ⇒ 1 MiB at the threshold) is
// L2-resident on any modern core, the gathers all hit, and the
// non-inlinable asm call is pure overhead (measured ~12% of a medium-RGG
// sweep on a 1 MiB-L2 Xeon). At and above it the scattered membership
// reads start missing to L3/DRAM, which is the latency the hints exist to
// hide.
const prefetchMinVertices = 1 << 18

// prefetchRow hints the CPU toward the membership slots vertex i's row is
// about to gather — the one scattered read per arc no layout can make
// sequential. The sweep bodies call it one vertex AHEAD of the one being
// decided, so the hints have a full decide's latency to land. Hints are
// issued eight at a time through the batched asm helpers because assembly
// calls cannot be inlined: one call per eight arcs keeps the overhead off
// the per-arc hot path (a per-arc call costs more than the misses it hides
// on cache-resident graphs). Rows shorter than a batch get a single scalar
// hint for their first target; under the noasm build tag every hint
// compiles to an inlined no-op.
//
//grappolo:hotpath
func (st *phaseState) prefetchRow(i int, membership []int32) {
	if st.inter {
		row := st.g.ArcRow(i)
		n := len(row)
		t := 0
		for ; t+8 <= n; t += 8 {
			par.PrefetchComm8S16(&membership[0], &row[t].Nbr)
		}
		if t < n {
			par.Prefetch32(&membership[row[t].Nbr])
		}
		return
	}
	st.prefetchRowSplit(i, membership)
}

// prefetchRowSplit is prefetchRow over the split id stream. The colored
// sweep bodies call it directly regardless of layout, matching decideLive's
// split-only reads.
//
//grappolo:hotpath
func (st *phaseState) prefetchRowSplit(i int, membership []int32) {
	nbr, _ := st.g.Neighbors(i)
	n := len(nbr)
	t := 0
	for ; t+8 <= n; t += 8 {
		par.PrefetchComm8(&membership[0], &nbr[t])
	}
	if t < n {
		par.Prefetch32(&membership[nbr[t]])
	}
}

// accumSnapSplit gathers e_{i→C} for every neighboring community of i from
// the SPLIT CSR (separate id and weight streams) with plain membership
// reads, and returns i's own community. The accumulator's first-touch key
// order equals the arc order, pinning ci at keys[0] (e_{i→C(i)\{i}} may be
// 0), which is what keeps the min-label tie-breaks bit-stable. This flat
// accumulation replaced the paper's per-vertex STL map (§5.5): one array
// write per arc, O(1) reset, zero allocations in steady state.
//
//grappolo:hotpath
func (st *phaseState) accumSnapSplit(i int, membership []int32, acc *par.SparseAccum) int32 {
	ci := membership[i]
	nbr, wts := st.g.Neighbors(i)
	acc.Reset()
	acc.Ensure(ci)
	for t, j := range nbr {
		if int(j) == i {
			continue // self-loop stays with i under any move
		}
		acc.Add(membership[j], wts[t])
	}
	return ci
}

// accumSnapInter is accumSnapSplit over the INTERLEAVED arc stream: each
// neighbor visit reads one packed (id, weight) element from a single
// sequential stream instead of gathering from two.
//
//grappolo:hotpath
func (st *phaseState) accumSnapInter(i int, membership []int32, acc *par.SparseAccum) int32 {
	ci := membership[i]
	row := st.g.ArcRow(i)
	acc.Reset()
	acc.Ensure(ci)
	for _, a := range row {
		if int(a.Nbr) == i {
			continue // self-loop stays with i under any move
		}
		acc.Add(membership[a.Nbr], a.W)
	}
	return ci
}

// accumAsyncSplit is accumSnapSplit with atomic membership loads (async
// sweeps move adjacent vertices concurrently).
//
//grappolo:hotpath
func (st *phaseState) accumAsyncSplit(i int, membership []int32, acc *par.SparseAccum) int32 {
	ci := atomicLoad32(&membership[i])
	nbr, wts := st.g.Neighbors(i)
	acc.Reset()
	acc.Ensure(ci)
	for t, j := range nbr {
		if int(j) == i {
			continue // self-loop stays with i under any move
		}
		acc.Add(atomicLoad32(&membership[j]), wts[t])
	}
	return ci
}

// accumAsyncInter is accumAsyncSplit over the interleaved arc stream.
//
//grappolo:hotpath
func (st *phaseState) accumAsyncInter(i int, membership []int32, acc *par.SparseAccum) int32 {
	ci := atomicLoad32(&membership[i])
	row := st.g.ArcRow(i)
	acc.Reset()
	acc.Ensure(ci)
	for _, a := range row {
		if int(a.Nbr) == i {
			continue // self-loop stays with i under any move
		}
		acc.Add(atomicLoad32(&membership[a.Nbr]), a.W)
	}
	return ci
}

// bestModPlain picks the max-gain move under Eq. (4) with plain aggregate
// reads, applying the generalized and singlet minimum-label heuristics of
// §5.1 (equal gains resolve to the smaller label; a singlet may enter
// another singlet community only downward, preventing the §4.2 swap cycles).
//
//grappolo:hotpath
func (st *phaseState) bestModPlain(i int, ci int32, acc *par.SparseAccum) int32 {
	comms := acc.Keys() // first-touch order, comms[0] == ci
	eOwn := acc.Val(ci) // e_{i→C(i)\{i}}
	m := st.m
	ki := st.g.Degree(i)
	best := ci
	bestGain := 0.0
	aOwn := st.commDeg[ci] - ki
	// Loop invariants of Eq. (4), hoisted without reassociating anything:
	// 2*ki*x parses as (2*ki)*x and st.gamma*y/(4*m*m) as (st.gamma*y)/(4*m*m),
	// so precomputing twoKi, ownTerm and denom4m2 yields bit-identical gains.
	twoKi := 2 * ki
	ownTerm := twoKi * aOwn
	denom4m2 := 4 * m * m
	gamma := st.gamma
	minLbl := st.minLbl
	commDeg := st.commDeg
	for _, ct := range comms[1:] {
		// Eq. (4).
		gain := (acc.Val(ct)-eOwn)/m + gamma*(ownTerm-twoKi*commDeg[ct])/denom4m2
		switch {
		case gain > bestGain:
			bestGain, best = gain, ct
		case minLbl && gain == bestGain && gain > 0 && ct < best:
			best = ct
		}
	}
	if best == ci || bestGain <= 0 {
		return ci
	}
	if st.minLbl && best > ci && st.size[ci] == 1 && st.size[best] == 1 {
		return ci
	}
	return best
}

// bestModAtomic is bestModPlain with atomic aggregate reads (colored and
// async sweeps mutate commDeg/size concurrently).
//
//grappolo:hotpath
func (st *phaseState) bestModAtomic(i int, ci int32, acc *par.SparseAccum) int32 {
	comms := acc.Keys()
	eOwn := acc.Val(ci)
	m := st.m
	ki := st.g.Degree(i)
	best := ci
	bestGain := 0.0
	aOwn := par.LoadFloat64(&st.commDeg[ci]) - ki
	// Same hoists as bestModPlain; see the note there on bit-identity.
	twoKi := 2 * ki
	ownTerm := twoKi * aOwn
	denom4m2 := 4 * m * m
	gamma := st.gamma
	minLbl := st.minLbl
	commDeg := st.commDeg
	for _, ct := range comms[1:] {
		// Eq. (4).
		gain := (acc.Val(ct)-eOwn)/m + gamma*(ownTerm-twoKi*par.LoadFloat64(&commDeg[ct]))/denom4m2
		switch {
		case gain > bestGain:
			bestGain, best = gain, ct
		case minLbl && gain == bestGain && gain > 0 && ct < best:
			best = ct
		}
	}
	if best == ci || bestGain <= 0 {
		return ci
	}
	if st.minLbl && best > ci &&
		atomicLoad64(&st.size[ci]) == 1 && atomicLoad64(&st.size[best]) == 1 {
		return ci
	}
	return best
}

// bestCPMPlain picks the max-gain move under the CPM objective (ΔH/m with
// the size-based penalty, future work iv) with plain aggregate reads.
//
//grappolo:hotpath
func (st *phaseState) bestCPMPlain(i int, ci int32, acc *par.SparseAccum) int32 {
	comms := acc.Keys()
	eOwn := acc.Val(ci)
	m := st.m
	best := ci
	bestGain := 0.0
	si := st.nodeSize[i]
	nsOwnLess := st.commNS[ci] - si
	// st.cpmGamma*float64(si) is loop-invariant and left-associated, so
	// hoisting it keeps the gains bit-identical.
	gSi := st.cpmGamma * float64(si)
	minLbl := st.minLbl
	commNS := st.commNS
	for _, ct := range comms[1:] {
		gain := (acc.Val(ct) - eOwn - gSi*float64(commNS[ct]-nsOwnLess)) / m
		switch {
		case gain > bestGain:
			bestGain, best = gain, ct
		case minLbl && gain == bestGain && gain > 0 && ct < best:
			best = ct
		}
	}
	if best == ci || bestGain <= 0 {
		return ci
	}
	if st.minLbl && best > ci && st.size[ci] == 1 && st.size[best] == 1 {
		return ci
	}
	return best
}

// bestCPMAtomic is bestCPMPlain with atomic aggregate reads.
//
//grappolo:hotpath
func (st *phaseState) bestCPMAtomic(i int, ci int32, acc *par.SparseAccum) int32 {
	comms := acc.Keys()
	eOwn := acc.Val(ci)
	m := st.m
	best := ci
	bestGain := 0.0
	si := st.nodeSize[i]
	nsOwnLess := atomicLoad64(&st.commNS[ci]) - si
	// Same hoist as bestCPMPlain; see the note there on bit-identity.
	gSi := st.cpmGamma * float64(si)
	minLbl := st.minLbl
	commNS := st.commNS
	for _, ct := range comms[1:] {
		gain := (acc.Val(ct) - eOwn - gSi*float64(atomicLoad64(&commNS[ct])-nsOwnLess)) / m
		switch {
		case gain > bestGain:
			bestGain, best = gain, ct
		case minLbl && gain == bestGain && gain > 0 && ct < best:
			best = ct
		}
	}
	if best == ci || bestGain <= 0 {
		return ci
	}
	if st.minLbl && best > ci &&
		atomicLoad64(&st.size[ci]) == 1 && atomicLoad64(&st.size[best]) == 1 {
		return ci
	}
	return best
}

// applyMove atomically migrates vertex i's contributions from community old
// to next (degree, count, and CPM node size when tracked).
//
//grappolo:hotpath
func (st *phaseState) applyMove(i int, old, next int32) {
	ki := st.g.Degree(i)
	par.AddFloat64(&st.commDeg[old], -ki)
	par.AddFloat64(&st.commDeg[next], ki)
	atomicAdd64(&st.size[old], -1)
	atomicAdd64(&st.size[next], 1)
	if st.commNS != nil {
		s := st.nodeSize[i]
		atomicAdd64(&st.commNS[old], -s)
		atomicAdd64(&st.commNS[next], s)
	}
}

// sweepUncolored performs one full parallel iteration without coloring:
// every vertex decides from the previous iteration's snapshot (no locks,
// deterministic for a fixed input regardless of worker count). Chunks are
// arc-balanced over the CSR offsets so a few hub vertices cannot serialize
// the sweep on skewed inputs, and each worker reuses its pooled accumulator.
func (st *phaseState) sweepUncolored(workers int) {
	copy(st.prev, st.curr)
	st.refreshAggregates(st.prev, workers)
	// The arc prefix is truncated to the movable range: a pinned suffix
	// (sweepOwn < n, see Engine.SweepSeeded) is simply never visited, so the
	// hot loop carries no per-vertex pin check at all.
	par.ForChunkPrefixCtx(st, st.g.ArcOffsets()[:st.sweepOwn+1], workers, func(st *phaseState, w, lo, hi int) {
		if st.stop() { // per-chunk cancellation check; results are discarded
			return
		}
		acc := st.scratch[w]
		for i := lo; i < hi; i++ {
			if st.pref && i+1 < hi {
				st.prefetchRow(i+1, st.prev) // hints land while i decides
			}
			st.curr[i] = st.decideSnap(i, st.prev, acc)
		}
	})
}

// sweepColoredSet processes one color set: vertices decide in parallel
// reading the LIVE community state and update the aggregates atomically on
// migration.
//
//grappolo:hotpath
func sweepColoredSet(st *phaseState, w, lo, hi int) {
	if st.stop() { // per-chunk cancellation check; results are discarded
		return
	}
	acc := st.scratch[w]
	set := st.curSet
	for t := lo; t < hi; t++ {
		i := int(set[t])
		if st.pref && t+1 < hi {
			st.prefetchRowSplit(int(set[t+1]), st.curr) // hints land while i decides
		}
		old := st.curr[i]
		next := st.decideLive(i, st.curr, acc)
		if next != old {
			st.applyMove(i, old, next)
			st.curr[i] = next
		}
	}
}

// colorMergeCutoff is the vertex count below which consecutive color sets
// are folded into one staged pass (par.ForStagesCtx) instead of each paying
// a full parallel-for fork/join. Greedy colorings produce a long tail of
// tiny sets — a few hundred vertices each — whose per-set barrier costs
// more than their work; 2048 vertices is comfortably past the point where
// the fork/join amortizes. Sets still execute serially in color order with
// a barrier between them (the moves of set k must be visible to set k+1),
// they merely share one worker team.
const colorMergeCutoff = 2048

// sweepColored performs one full iteration over color sets: sets are
// processed in order; inside a set vertices decide in parallel reading the
// LIVE community state (earlier sets' moves are visible, §5.4 step 3).
// Within a set, chunks are balanced by member arc counts (prefix sum over
// OutDegree into the pooled colorPrefix buffers) — unless the coloring was
// arc-rebalanced (arcEvenSets), in which case the sets are already even by
// construction and plain dynamic count chunks skip both the prefix build
// and the binary-search chunking. Runs of sets smaller than
// colorMergeCutoff share one worker team via par.ForStagesCtx (see the
// constant's comment).
func (st *phaseState) sweepColored(sets [][]int32, workers int) {
	st.refreshAggregates(st.curr, workers)
	if !st.arcEvenSets && !st.prefixReady {
		total := 0
		for _, set := range sets {
			total += len(set) + 1
		}
		buf := par.Resize(st.prefixBuf, total) // one backing array for all sets
		st.prefixBuf = buf
		prefixes := par.Resize(st.colorPrefix, len(sets))
		st.colorPrefix = prefixes
		off := 0
		for si, set := range sets {
			prefixes[si] = buf[off : off+len(set)+1]
			off += len(set) + 1
		}
		// Each set's degree prefix is independent, so the O(n) fill runs
		// one set per chunk item; the slicing above stays serial (it is
		// O(sets) pointer arithmetic).
		st.prefixSets = sets
		par.ForChunkCtx(st, len(sets), workers, 1, func(st *phaseState, _, lo, hi int) {
			for si := lo; si < hi; si++ {
				set := st.prefixSets[si]
				prefix := st.colorPrefix[si]
				prefix[0] = 0
				for t, v := range set {
					prefix[t+1] = prefix[t] + int64(st.g.OutDegree(int(v)))
				}
			}
		})
		st.prefixSets = nil
		st.prefixReady = true
	}
	for si := 0; si < len(sets); {
		// Color-set boundaries are the natural barriers of a colored sweep;
		// a canceled run abandons the remaining sets here (the owning
		// runPhase observes the same flag and unwinds).
		if st.stop() {
			break
		}
		// Extend a run of consecutive small sets; a run of length ≥ 2 is
		// worth merging into one staged pass.
		sj := si
		for sj < len(sets) && len(sets[sj]) < colorMergeCutoff {
			sj++
		}
		if sj-si >= 2 {
			st.mergeSets = sets[si:sj]
			par.ForStagesCtx(st, sj-si, mergedSetLen, workers, sweepMergedSet)
			st.mergeSets = nil
			si = sj
			continue
		}
		set := sets[si]
		st.curSet = set
		if st.arcEvenSets {
			par.ForChunkCtx(st, len(set), workers, 0, sweepColoredSet)
		} else {
			par.ForChunkPrefixCtx(st, st.colorPrefix[si], workers, sweepColoredSet)
		}
		si++
	}
	st.curSet = nil
}

// mergedSetLen is the stage-size hook for the merged small-set pass.
func mergedSetLen(st *phaseState, s int) int { return len(st.mergeSets[s]) }

// sweepMergedSet is sweepColoredSet for one stage of a merged run of small
// color sets: identical decide/apply semantics, the set simply comes from
// the staged pass instead of curSet.
//
//grappolo:hotpath
func sweepMergedSet(st *phaseState, s, w, lo, hi int) {
	if st.stop() { // per-chunk cancellation check; results are discarded
		return
	}
	acc := st.scratch[w]
	set := st.mergeSets[s]
	for t := lo; t < hi; t++ {
		i := int(set[t])
		if st.pref && t+1 < hi {
			st.prefetchRowSplit(int(set[t+1]), st.curr) // hints land while i decides
		}
		old := st.curr[i]
		next := st.decideLive(i, st.curr, acc)
		if next != old {
			st.applyMove(i, old, next)
			st.curr[i] = next
		}
	}
}

// sweepAsync performs one full iteration of asynchronous live-state local
// moves (the PLM emulation, §7): every vertex decides from whatever its
// neighbors' CURRENT assignments are, with membership and aggregates both
// accessed atomically because adjacent vertices move concurrently.
func (st *phaseState) sweepAsync(workers int) {
	st.refreshAggregates(st.curr, workers)
	par.ForChunkPrefixCtx(st, st.g.ArcOffsets(), workers, func(st *phaseState, w, lo, hi int) {
		if st.stop() { // per-chunk cancellation check; results are discarded
			return
		}
		acc := st.scratch[w]
		for i := lo; i < hi; i++ {
			if st.pref && i+1 < hi {
				st.prefetchRow(i+1, st.curr) // hints land while i decides
			}
			old := atomicLoad32(&st.curr[i])
			next := st.decideAsync(i, st.curr, acc)
			if next != old {
				st.applyMove(i, old, next)
				atomicStore32(&st.curr[i], next)
			}
		}
	})
}

// score computes the active objective for the current assignment: Eq. (3)
// modularity, or the normalized CPM score H/m under ObjCPM.
func (st *phaseState) score(workers int) float64 {
	if st.obj == ObjCPM {
		return st.cpmScore(workers)
	}
	return st.modularity(workers)
}

// cpmScore computes H/m = (w_in − γ·Σ_C binom(ns_C,2)) / m in parallel,
// with w_in counted by the coarsening-invariant within2/2 convention.
func (st *phaseState) cpmScore(workers int) float64 {
	g := st.g
	n := g.N()
	if n == 0 || st.m == 0 {
		return 0
	}
	within2 := par.SumFloat64Ctx(st, n, workers, func(st *phaseState, i int) float64 {
		ci := st.curr[i]
		nbr, wts := st.g.Neighbors(i)
		s := 0.0
		for t, j := range nbr {
			if int(j) == i || st.curr[j] == ci {
				s += wts[t]
			}
		}
		return s
	})
	ns := par.Resize(st.aggI, n)
	st.aggI = ns
	par.ForChunkCtx(st, n, workers, 0, func(st *phaseState, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			st.aggI[i] = 0
		}
	})
	par.ForChunkCtx(st, n, workers, 0, func(st *phaseState, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomicAdd64(&st.aggI[st.curr[i]], st.nodeSize[i])
		}
	})
	penalty := par.SumFloat64Ctx(st, n, workers, func(st *phaseState, c int) float64 {
		s := float64(st.aggI[c])
		return s * (s - 1) / 2
	})
	return (within2/2 - st.cpmGamma*penalty) / st.m
}

// modularity computes Eq. (3) for the current assignment in parallel.
func (st *phaseState) modularity(workers int) float64 {
	g := st.g
	n := g.N()
	m2 := g.TotalWeight()
	if n == 0 || m2 == 0 {
		return 0
	}
	within := par.SumFloat64Ctx(st, n, workers, func(st *phaseState, i int) float64 {
		ci := st.curr[i]
		nbr, wts := st.g.Neighbors(i)
		s := 0.0
		for t, j := range nbr {
			if st.curr[j] == ci {
				s += wts[t]
			}
		}
		return s
	})
	// a_C from curr (into the pooled, zeroed buffer), then Σ (a_C / 2m)².
	deg := par.Resize(st.aggF, n)
	st.aggF = deg
	par.ForChunkCtx(st, n, workers, 0, func(st *phaseState, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			st.aggF[i] = 0
		}
	})
	par.ForChunkCtx(st, n, workers, 0, func(st *phaseState, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			par.AddFloat64(&st.aggF[st.curr[i]], st.g.Degree(i))
		}
	})
	null := par.SumFloat64Ctx(st, n, workers, func(st *phaseState, c int) float64 {
		f := st.aggF[c] / st.m2
		return f * f
	})
	return within/m2 - st.gamma*null
}
