package coloring

import (
	"sync/atomic"

	"grappolo/internal/graph"
	"grappolo/internal/par"
)

func atomicAddJP(cell *int64, d int64) { atomic.AddInt64(cell, d) }

// JonesPlassmann computes a distance-1 coloring with the Jones–Plassmann
// algorithm: every vertex draws a random priority; in each round, vertices
// that are local maxima among their UNCOLORED neighbors pick the smallest
// color unused in their neighborhood. Unlike the speculate-and-resolve
// greedy (Parallel), no conflicts are ever produced, at the cost of more
// rounds on high-degree graphs. It is the other classic parallel coloring
// in the literature the paper's reference [12] benchmarks against, provided
// here for ablation studies of the coloring preprocessing step.
//
// The result is deterministic for a fixed seed regardless of worker count.
func JonesPlassmann(g *graph.Graph, p int, seed uint64) *Coloring {
	return JonesPlassmannWith(g, p, seed, nil)
}

// JonesPlassmannWith is JonesPlassmann drawing every working buffer from s
// (see Scratch for ownership rules); nil s allocates a private one.
func JonesPlassmannWith(g *graph.Graph, p int, seed uint64, s *Scratch) *Coloring {
	if s == nil {
		s = NewScratch()
	}
	n := g.N()
	colors := par.Resize(s.colors, n)
	s.colors = colors
	prio := par.Resize(s.prio, n)
	s.prio = prio
	var rng par.RNG
	rng.Seed(seed)
	for i := range colors {
		colors[i] = -1
		// Tie-break by id (priorities are distinct with probability ~1, but
		// equal draws must not deadlock): fold the id into the low bits.
		prio[i] = (rng.Uint64() &^ 0xffffff) | uint64(i)
	}
	markers := s.growMarkers(par.Workers(p, n), 0)
	remaining := int64(n)
	rounds := 0
	active := par.Resize(s.active, n) // vertices selected this round
	s.active = active
	ctx := &s.jpc
	*ctx = jpCtx{g: g, colors: colors, prio: prio, active: active,
		markers: markers, colored: &s.coloredCount}
	for remaining > 0 {
		rounds++
		// Select local maxima among uncolored vertices.
		par.ForChunkCtx(ctx, n, p, 0, jpSelectPhase)
		// Color the selected independent set (no two selected vertices are
		// adjacent: both being local maxima over each other is impossible
		// with distinct priorities).
		s.coloredCount = 0
		par.ForChunkCtx(ctx, n, p, 0, jpColorPhase)
		remaining -= s.coloredCount
	}
	s.jpc = jpCtx{} // drop graph/slice references until the next kernel call
	numColors := 0
	for _, c := range colors {
		if int(c)+1 > numColors {
			numColors = int(c) + 1
		}
	}
	return assembleInto(s, colors, numColors, rounds)
}

// jpCtx carries one Jones–Plassmann round's state into the captureless loop
// bodies, passed by pointer (see par.ForChunkCtx and Scratch).
type jpCtx struct {
	g       *graph.Graph
	colors  []int32
	prio    []uint64
	active  []bool
	markers []*par.Marker
	colored *int64
}

func jpSelectPhase(c *jpCtx, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.active[i] = false
		if c.colors[i] >= 0 {
			continue
		}
		nbr, _ := c.g.Neighbors(i)
		isMax := true
		for _, j := range nbr {
			if int(j) != i && c.colors[j] < 0 && c.prio[j] > c.prio[i] {
				isMax = false
				break
			}
		}
		c.active[i] = isMax
	}
}

func jpColorPhase(c *jpCtx, w, lo, hi int) {
	var local int64
	used := c.markers[w]
	for i := lo; i < hi; i++ {
		if !c.active[i] {
			continue
		}
		used.Reset()
		nbr, _ := c.g.Neighbors(i)
		for _, j := range nbr {
			if int(j) != i {
				if cc := c.colors[j]; cc >= 0 {
					if int(cc) >= used.Universe() {
						used.Grow(int(cc) + 2)
					}
					used.Set(cc)
				}
			}
		}
		cc := int32(0)
		for int(cc) < used.Universe() && used.Has(cc) {
			cc++
		}
		c.colors[i] = cc
		local++
	}
	atomicAddJP(c.colored, local)
}
