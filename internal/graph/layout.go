package graph

import "grappolo/internal/par"

// Layout selects how a Graph stores its adjacency arcs.
//
// LayoutSplit is the classic two-array CSR: neighbor ids in one []int32
// stream, weights in a parallel []float64 stream. LayoutInterleaved
// additionally packs every arc into one []Arc stream, so a neighbor visit —
// the unit of work of the decide hot loop — touches ONE sequential cache
// stream instead of two. The split arrays are always present (every
// non-hot-path consumer keeps reading them); the interleaved array is a pure
// rearrangement of the same arcs in the same order, so algorithm results are
// bit-identical under either layout, at the cost of one extra 16-byte-per-arc
// array held by interleaved graphs.
type Layout int

const (
	// LayoutSplit stores adjacency as separate id and weight arrays (the
	// default; lowest memory).
	LayoutSplit Layout = iota
	// LayoutInterleaved additionally materializes the packed []Arc stream
	// consumed by the monomorphic sweep kernels (fastest sweeps; +16 B/arc).
	LayoutInterleaved
)

// String names the layout for flags and study tables.
func (l Layout) String() string {
	switch l {
	case LayoutSplit:
		return "split"
	case LayoutInterleaved:
		return "interleaved"
	default:
		return "unknown"
	}
}

// Arc is one stored directed arc of the interleaved layout: the neighbor id
// and the edge weight packed into a single 16-byte element (4 bytes padding),
// so the sweep kernels stream one array instead of gathering from two.
type Arc struct {
	Nbr int32
	W   float64
}

// Layout returns the graph's arc layout.
func (g *Graph) Layout() Layout { return g.layout }

// Arcs returns the packed interleaved arc array (parallel to the split
// adjacency, row i is Arcs()[offsets[i]:offsets[i+1]]), or nil under
// LayoutSplit. Callers must not modify it.
func (g *Graph) Arcs() []Arc { return g.arcs }

// ArcRow returns vertex i's packed arc row, or nil under LayoutSplit.
// Callers must not modify it.
func (g *Graph) ArcRow(i int) []Arc {
	if g.arcs == nil {
		return nil
	}
	return g.arcs[g.offsets[i]:g.offsets[i+1]]
}

// SetLayout converts g to the given layout in place: LayoutInterleaved
// materializes the packed arc array from the split CSR (recycling any
// previous capacity, so a pooled graph rebuilt at the same shape allocates
// nothing), LayoutSplit drops it. The split arrays are untouched either way —
// the conversion is pure rearrangement and never changes results. SetLayout
// is NOT safe to call concurrently with readers of g; convert at build time
// or between runs.
func (g *Graph) SetLayout(l Layout, p int) {
	if l == g.layout {
		// Every mutation of the split CSR goes through finish, which re-packs
		// an interleaved graph's arc stream; a same-layout conversion is
		// therefore always a no-op, which keeps the engine's
		// "ensure this layout" calls free on warm runs.
		return
	}
	g.layout = l
	if l != LayoutInterleaved {
		g.arcs = nil
		return
	}
	g.buildArcs(p)
}

// buildArcs (re)fills the packed arc array from the split CSR.
func (g *Graph) buildArcs(p int) {
	g.arcs = par.Resize(g.arcs, len(g.adj))
	par.ForChunkCtx(g, len(g.adj), p, 0, func(g *Graph, _, lo, hi int) {
		for t := lo; t < hi; t++ {
			g.arcs[t] = Arc{Nbr: g.adj[t], W: g.weights[t]}
		}
	})
}
