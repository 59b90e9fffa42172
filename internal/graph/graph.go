// Package graph provides the weighted undirected graph substrate used by the
// community-detection algorithms: a compressed sparse row (CSR)
// representation, a deduplicating builder, file I/O, and the degree
// statistics the paper reports in Table 1.
//
// Conventions (paper §2): the graph G(V, E, ω) is undirected with positive
// edge weights; self-loops (i, i) are allowed, multi-edges are not (the
// builder merges them by summing weights). Each undirected edge {i, j},
// i ≠ j, is stored in both adjacency rows; a self-loop is stored once, in
// its owner's row. The weighted degree k_i sums the row of i (a self-loop
// therefore counts once in k_i, matching the paper's k_i = Σ_{j∈Γ(i)} ω(i,j)),
// and m = ½ Σ_i k_i.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"grappolo/internal/par"
)

// Graph is an immutable weighted undirected graph in CSR form.
// Vertex ids are dense in [0, N()).
type Graph struct {
	offsets []int64   // len n+1; row i is adj[offsets[i]:offsets[i+1]]
	adj     []int32   // neighbor ids
	weights []float64 // parallel to adj
	arcs    []Arc     // interleaved (id, weight) stream; nil under LayoutSplit
	layout  Layout    // arc storage layout (see SetLayout)
	degree  []float64 // weighted degree k_i (row sums, self-loop once)
	totalW  float64   // 2m' = Σ k_i; m = totalW / 2
	loops   int64     // number of self-loop arcs, cached at build time
	maxOut  int       // max unweighted out-degree, cached at build time

	// Memoized content hashes, accessed atomically (plain words, not
	// atomic.Uint64, so a Graph header stays freely copyable). 0 means "not
	// computed yet" — both hash functions normalize a computed 0 to 1 — and
	// finish() resets both, which is what keeps a FromCSRInto-recycled
	// header from serving the previous graph's identity.
	fpHash     uint64 // sampled Fingerprint.Hash
	strongHash uint64 // full-content hash (StrongHash)
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// ArcCount returns the number of stored directed arcs (each undirected
// non-loop edge contributes two, each self-loop one).
func (g *Graph) ArcCount() int64 { return int64(len(g.adj)) }

// EdgeCount returns the number of undirected edges M (self-loops count as
// one edge each). The self-loop count is cached at build time, so this is
// O(1) rather than a scan over all arcs.
func (g *Graph) EdgeCount() int64 {
	return (int64(len(g.adj))-g.loops)/2 + g.loops
}

// SelfLoopCount returns the number of self-loop arcs, cached at build time.
func (g *Graph) SelfLoopCount() int64 { return g.loops }

// MaxOutDegree returns the maximum unweighted out-degree over all vertices
// (0 for an empty graph), cached at build time. Hot-path callers size their
// per-worker neighbor-community accumulators with it.
func (g *Graph) MaxOutDegree() int { return g.maxOut }

// ArcOffsets returns the CSR offset array (length N()+1): an exclusive
// prefix sum of per-vertex arc counts, directly usable as the weight prefix
// of par.ForChunkPrefix for arc-balanced vertex chunking. Callers must not
// modify it.
func (g *Graph) ArcOffsets() []int64 { return g.offsets }

// TotalWeight returns Σ_i k_i = 2m.
func (g *Graph) TotalWeight() float64 { return g.totalW }

// CheckWeight returns an error wrapping ErrBadWeight when the total weight
// is NaN or infinite: one NaN or +Inf edge (which the Builder and FromEdges
// store as given) poisons every modularity gain, so a detection's
// iteration loop could never converge. It is O(1) on the cached total.
func (g *Graph) CheckWeight() error {
	if math.IsNaN(g.totalW) || math.IsInf(g.totalW, 0) {
		return fmt.Errorf("%w: total edge weight is %v", ErrBadWeight, g.totalW)
	}
	return nil
}

// M returns m, the sum of all edge weights as defined in the paper
// (m = ½ Σ_i k_i).
func (g *Graph) M() float64 { return g.totalW / 2 }

// Degree returns the weighted degree k_i.
func (g *Graph) Degree(i int) float64 { return g.degree[i] }

// Degrees returns the full weighted-degree slice. Callers must not modify it.
func (g *Graph) Degrees() []float64 { return g.degree }

// OutDegree returns the unweighted number of stored neighbors of i
// (self-loop counts once).
func (g *Graph) OutDegree(i int) int { return int(g.offsets[i+1] - g.offsets[i]) }

// Neighbors returns the neighbor ids and weights of vertex i as shared
// sub-slices of the CSR arrays. Callers must not modify them.
func (g *Graph) Neighbors(i int) ([]int32, []float64) {
	lo, hi := g.offsets[i], g.offsets[i+1]
	return g.adj[lo:hi], g.weights[lo:hi]
}

// SelfLoopWeight returns the weight of the self-loop at i, or 0.
func (g *Graph) SelfLoopWeight(i int) float64 {
	nbr, w := g.Neighbors(i)
	for t, j := range nbr {
		if j == int32(i) {
			return w[t]
		}
	}
	return 0
}

// HasEdge reports whether the undirected edge {i, j} exists.
func (g *Graph) HasEdge(i, j int) bool {
	nbr, _ := g.Neighbors(i)
	for _, v := range nbr {
		if v == int32(j) {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of edge {i, j} and whether it exists.
func (g *Graph) EdgeWeight(i, j int) (float64, bool) {
	nbr, w := g.Neighbors(i)
	for t, v := range nbr {
		if v == int32(j) {
			return w[t], true
		}
	}
	return 0, false
}

// Validate checks structural invariants: offsets monotone, neighbor ids in
// range, positive finite weights, no duplicate arcs, and symmetry (every
// arc i→j with i≠j has a matching j→i arc of equal weight). It uses all
// CPUs; the error it returns is the first failure in vertex order, the same
// for any worker count. A weight failure wraps ErrBadWeight. It is used by
// tests and after binary file loads; algorithms assume a valid graph.
func (g *Graph) Validate() error { return g.validate(0) }

// validate is Validate on p workers (p <= 0 selects all CPUs). The arc
// checks cost O(arcs · log maxdeg): each edge is probed once, from its
// upper arc i→j (j > i), by binary search in row j (by a linear scan if row
// j is not strictly increasing). When every upper arc has
// its match and the rows are duplicate-free, equal counts of arcs below and
// above the diagonal mean every lower arc is the partner of an upper one, so
// lower arcs need no probe. Any failure is replayed serially in the order of
// a full per-arc check, which picks the error text.
func (g *Graph) validate(p int) error {
	if err := checkShape(g.offsets, g.adj, g.weights); err != nil {
		return err
	}
	n := g.N()
	c := &arcCheck{g: g, sorted: make([]bool, n), part: make([]arcPartial, par.Workers(p, n))}
	c.bad.Store(int64(n))
	par.ForChunkPrefixCtx(c, g.offsets, p, func(c *arcCheck, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			nbr, _ := c.g.Neighbors(i)
			c.sorted[i] = increasing(nbr)
		}
	})
	par.ForChunkPrefixCtx(c, g.offsets, p, func(c *arcCheck, w, lo, hi int) {
		var part arcPartial
		var seen map[int32]struct{}
		for i := lo; i < hi && int64(i) < c.bad.Load(); i++ {
			if c.row(i, false, &part, &seen) != nil {
				c.fail(i)
				break
			}
		}
		c.part[w].add(part)
	})
	var total arcPartial
	for _, part := range c.part {
		total.add(part)
	}
	if bad := int(c.bad.Load()); bad < n || total.lower != total.upper {
		var part arcPartial
		var seen map[int32]struct{}
		for i := 0; i < min(bad+1, n); i++ {
			if err := c.row(i, true, &part, &seen); err != nil {
				return err
			}
		}
		return fmt.Errorf("graph: %d arcs below the diagonal but %d above", total.lower, total.upper)
	}
	// The per-worker sums add in another order than a serial pass over the
	// arcs, which moves the result by at most 2·arcs·2^-53·sum. Unless the
	// sum passes with that much to spare, recompute it serially, so the
	// verdict and the reported sum are the serial ones.
	sum, tol := total.sum, 1e-6*(1+math.Abs(g.totalW))
	if !(math.Abs(sum-g.totalW) <= tol-0x1p-51*float64(len(g.adj))*sum) {
		sum = 0
		for _, x := range g.weights {
			sum += x
		}
		if math.Abs(sum-g.totalW) > tol {
			return fmt.Errorf("graph: cached total weight %v != recomputed %v", g.totalW, sum)
		}
	}
	switch g.layout {
	case LayoutSplit:
		if g.arcs != nil {
			return fmt.Errorf("graph: split layout carries an interleaved arc array")
		}
	case LayoutInterleaved:
		if len(g.arcs) != len(g.adj) {
			return fmt.Errorf("graph: interleaved arc array length %d != adjacency length %d", len(g.arcs), len(g.adj))
		}
		for t := range g.arcs {
			if g.arcs[t].Nbr != g.adj[t] || g.arcs[t].W != g.weights[t] {
				return fmt.Errorf("graph: interleaved arc %d (%d, %v) diverges from split CSR (%d, %v)",
					t, g.arcs[t].Nbr, g.arcs[t].W, g.adj[t], g.weights[t])
			}
		}
	default:
		return fmt.Errorf("graph: unknown layout %d", g.layout)
	}
	return nil
}

// checkShape checks that offsets slice adj and weights into rows: it starts
// at 0, never decreases and ends at the shared length of the arc arrays.
func checkShape(offsets []int64, adj []int32, weights []float64) error {
	if len(offsets) == 0 || offsets[0] != 0 {
		return fmt.Errorf("graph: bad offsets header")
	}
	n := len(offsets) - 1
	for i := 0; i < n; i++ {
		if offsets[i] > offsets[i+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", i)
		}
	}
	if offsets[n] != int64(len(adj)) || len(adj) != len(weights) {
		return fmt.Errorf("graph: adjacency length mismatch")
	}
	return nil
}

// arcCheck is the state validate shares across its workers.
type arcCheck struct {
	g      *Graph
	sorted []bool       // row i's ids strictly increase, so it holds no duplicate
	part   []arcPartial // per worker
	bad    atomic.Int64 // lowest vertex whose row failed; n if none
}

// arcPartial accumulates the arcs one worker has checked.
type arcPartial struct {
	sum          float64
	lower, upper int64 // arcs i→j with j < i and with j > i
}

func (a *arcPartial) add(b arcPartial) {
	a.sum += b.sum
	a.lower += b.lower
	a.upper += b.upper
}

// fail lowers c.bad to i.
func (c *arcCheck) fail(i int) {
	for {
		old := c.bad.Load()
		if old <= int64(i) || c.bad.CompareAndSwap(old, int64(i)) {
			return
		}
	}
}

// row checks vertex i's arcs in order and returns the first failure. Each
// arc is checked for an in-range id, a valid weight, a duplicate (only in a
// row that is not strictly increasing), and then, if j > i or lower is set,
// for a reverse arc of equal weight. *seen is the duplicate set, allocated
// on first use and reused across rows.
func (c *arcCheck) row(i int, lower bool, part *arcPartial, seen *map[int32]struct{}) error {
	nbr, w := c.g.Neighbors(i)
	dedup := !c.sorted[i]
	if dedup {
		if *seen == nil {
			*seen = make(map[int32]struct{}, len(nbr))
		}
		clear(*seen)
	}
	for t, j := range nbr {
		if j < 0 || int(j) >= len(c.sorted) {
			return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", i, j)
		}
		if !ValidWeight(w[t]) {
			return fmt.Errorf("%w: edge (%d,%d) has weight %v", ErrBadWeight, i, j, w[t])
		}
		if dedup {
			if _, dup := (*seen)[j]; dup {
				return fmt.Errorf("graph: duplicate arc %d->%d", i, j)
			}
			(*seen)[j] = struct{}{}
		}
		switch {
		case int(j) < i:
			part.lower++
		case int(j) > i:
			part.upper++
		}
		if int(j) > i || lower && int(j) < i {
			wj, ok := c.probe(int(j), int32(i))
			if !ok {
				return fmt.Errorf("graph: missing reverse arc %d->%d", j, i)
			}
			if wj != w[t] {
				return fmt.Errorf("graph: asymmetric weight on edge {%d,%d}: %v vs %v", i, j, w[t], wj)
			}
		}
		part.sum += w[t]
	}
	return nil
}

// increasing reports whether ids strictly increase.
func increasing(ids []int32) bool {
	for t := 1; t < len(ids); t++ {
		if ids[t] <= ids[t-1] {
			return false
		}
	}
	return true
}

// probe returns the weight of the first arc j→i in row j, as EdgeWeight
// does, by binary search when row j is strictly increasing.
func (c *arcCheck) probe(j int, i int32) (float64, bool) {
	nbr, w := c.g.Neighbors(j)
	if c.sorted[j] {
		t, ok := slices.BinarySearch(nbr, i)
		if !ok {
			return 0, false
		}
		return w[t], true
	}
	for t, v := range nbr {
		if v == i {
			return w[t], true
		}
	}
	return 0, false
}

// Stats summarizes the unweighted degree distribution of a graph exactly as
// Table 1 of the paper reports it: vertex count, edge count, and the
// maximum, average, and relative standard deviation (RSD = stddev/mean) of
// vertex degrees.
type Stats struct {
	N      int
	M      int64
	MaxDeg int
	AvgDeg float64
	RSD    float64
}

// ComputeStats computes Table 1-style statistics. Degrees are unweighted
// neighbor counts (self-loop counts once), matching the paper's table.
func ComputeStats(g *Graph) Stats {
	n := g.N()
	st := Stats{N: n, M: g.EdgeCount()}
	if n == 0 {
		return st
	}
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		d := float64(g.OutDegree(i))
		if g.OutDegree(i) > st.MaxDeg {
			st.MaxDeg = g.OutDegree(i)
		}
		sum += d
		sumSq += d * d
	}
	mean := sum / float64(n)
	st.AvgDeg = mean
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	if mean > 0 {
		st.RSD = math.Sqrt(variance) / mean
	}
	return st
}

// String renders the stats as a Table 1 row.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d M=%d max=%d avg=%.3f rsd=%.3f", s.N, s.M, s.MaxDeg, s.AvgDeg, s.RSD)
}
