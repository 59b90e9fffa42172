package core

import (
	"grappolo/internal/graph"
	"grappolo/internal/par"
)

// vfCtx carries the vertex-following state into the captureless loop bodies
// (pointer-passed; see par.ForChunkCtx).
type vfCtx struct {
	g         *graph.Graph
	parent    []int32
	merged    *int64
	m2        float64
	chainMode bool
}

func vfScan(c *vfCtx, _, lo, hi int) {
	local := int64(0)
	for i := lo; i < hi; i++ {
		c.parent[i] = int32(i)
		nbr, wts := c.g.Neighbors(i)
		switch {
		case len(nbr) == 1 && int(nbr[0]) != i:
			// Single-degree vertex: Lemma 3, unconditional merge.
			c.parent[i] = nbr[0]
			local++
		case c.chainMode && len(nbr) == 2 && c.m2 > 0:
			// Single-neighbor vertex: one self-loop + one edge (i, j).
			var j int32 = -1
			var wij float64
			for t, v := range nbr {
				if int(v) != i {
					if j >= 0 {
						j = -1 // two distinct neighbors: not single-neighbor
						break
					}
					j, wij = v, wts[t]
				}
			}
			if j >= 0 && wij > c.g.Degree(i)*c.g.Degree(int(j))/c.m2 {
				c.parent[i] = j
				local++
			}
		}
	}
	atomicAdd64(c.merged, local)
}

// vfBreakPairs makes the smaller vertex of each mutual pair its root. Only
// i's worker writes parent[i], but p's worker may read it at the same time,
// hence the atomics.
func vfBreakPairs(c *vfCtx, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		p := c.parent[i]
		if p != int32(i) && p > int32(i) && atomicLoad32(&c.parent[p]) == int32(i) {
			atomicStore32(&c.parent[i], int32(i))
		}
	}
}

func vfContract(c *vfCtx, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		p := atomicLoad32(&c.parent[i])
		for {
			gp := atomicLoad32(&c.parent[p])
			if gp == p {
				break
			}
			p = gp
		}
		atomicStore32(&c.parent[i], p)
	}
}

// vertexFollow computes the VF preprocessing assignment of §5.3: every
// single-degree vertex (exactly one incident edge, which is not a
// self-loop) is merged into its sole neighbor. Lemma 3 guarantees the
// final Louvain solution would co-locate them anyway, so merging a priori
// shrinks the first phase without changing reachable quality.
//
// With chainMode set, the single-NEIGHBOR extension discussed at the end of
// §5.3 also applies: a vertex whose only edges are one edge (i, j) and an
// optional self-loop (i, i) — the shape produced by collapsing a chain tip —
// is merged into j when the explicit lower bound of inequality (10) is
// positive, i.e. ω(i,j) > k_i·k_j / (2m). Repeated passes therefore
// compress hanging chains from the tips inward and stop exactly when the
// negative term of the bound starts to dominate.
//
// It returns a dense community assignment over g's vertices (aliasing the
// engine's pooled renumber buffer, valid until the next renumbering) and the
// number of communities. If no vertex qualifies, ok is false and the inputs
// should be used unchanged. The scan and parent resolution are parallel.
func (e *Engine) vertexFollow(g *graph.Graph, workers int, chainMode bool) (membership []int32, numComm int, ok bool) {
	n := g.N()
	parent := par.Resize(e.vfParent, n)
	e.vfParent = parent
	e.vfMerged = 0
	ctx := &e.vfc
	*ctx = vfCtx{g: g, parent: parent, merged: &e.vfMerged,
		m2: g.TotalWeight(), chainMode: chainMode}
	par.ForChunkCtx(ctx, n, workers, 0, vfScan)
	if e.vfMerged == 0 {
		*ctx = vfCtx{}
		return nil, 0, false
	}
	// Break pointer cycles: if i and j point at each other (mutual pair),
	// or longer follow-chains arise in chain mode, resolve each vertex to a
	// representative by path-halving with the minimum-label rule (§5.1):
	// the smallest id on the cycle wins.
	par.ForChunkCtx(ctx, n, workers, 0, vfBreakPairs)
	// In chain mode two adjacent chain vertices may both merge inward,
	// producing pointer chains longer than one hop; contract every chain to
	// its root. Concurrent contraction of overlapping chains is safe (all
	// paths end at the same root) but must use atomics to be well-defined.
	par.ForChunkCtx(ctx, n, workers, 0, vfContract)
	*ctx = vfCtx{}
	out := par.Resize(e.denseOut, n)
	e.denseOut = out
	occ := par.Resize(e.occupied, n+1)
	e.occupied = occ
	renumberParallelInto(out, occ, parent, workers)
	numComm = int(maxInt32(out)) + 1
	return out, numComm, true
}

// vertexFollowChain repeats VF passes on progressively rebuilt graphs until
// no qualifying vertices remain (or maxRounds is hit), folding the composed
// mapping into total (which must come in as the identity over g's vertices).
// A single round with chainMode false is the paper's basic VF; multiple
// rounds with chainMode true implement the chain-compression extension of
// §5.3. It returns the compressed graph (owned by the engine's graph slots)
// and how many VF passes were applied.
func (e *Engine) vertexFollowChain(g *graph.Graph, workers, maxRounds int, total []int32) (*graph.Graph, int) {
	n := len(total)
	cur := g
	rounds := 0
	chainMode := maxRounds > 1
	for rounds < maxRounds {
		membership, nc, ok := e.vertexFollow(cur, workers, chainMode)
		if !ok {
			break
		}
		rounds++
		cur = e.rebuild(cur, membership, nc, workers)
		fold := &e.fold
		*fold = foldCtx{total: total, phase: membership}
		par.ForChunkCtx(fold, n, workers, 0, foldMembership)
		*fold = foldCtx{}
	}
	return cur, rounds
}

// vertexFollow is the standalone form used by tests and benchmarks; the
// returned membership is freshly allocated.
func vertexFollow(g *graph.Graph, workers int, chainMode bool) ([]int32, int, bool) {
	e := &Engine{}
	membership, nc, ok := e.vertexFollow(g, workers, chainMode)
	if !ok {
		return nil, 0, false
	}
	out := make([]int32, len(membership))
	copy(out, membership)
	return out, nc, true
}

// vertexFollowChain is the standalone form used by tests: it allocates the
// composed mapping.
func vertexFollowChain(g *graph.Graph, workers, maxRounds int) (*graph.Graph, []int32, int) {
	e := &Engine{}
	total := make([]int32, g.N())
	for i := range total {
		total[i] = int32(i)
	}
	cur, rounds := e.vertexFollowChain(g, workers, maxRounds, total)
	return cur, total, rounds
}

func maxInt32(v []int32) int32 {
	m := int32(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
