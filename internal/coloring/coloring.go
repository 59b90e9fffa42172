// Package coloring implements the parallel graph-coloring preprocessing the
// paper uses to serialize conflicting community updates (§5.2): vertices of
// one color form an independent set, so processing one color set at a time
// (parallel within the set) guarantees no two adjacent vertices decide
// concurrently.
//
// The parallel algorithm is the speculate-and-resolve greedy of Catalyürek
// et al. (the paper's reference [12]): all uncolored vertices pick the
// smallest color not used by their neighbors concurrently (tentatively),
// then conflicts (adjacent equal colors) are detected and the loser is
// uncolored for the next round. The package also provides the balanced
// variant the paper proposes as future work for skewed color-set sizes
// (§6.2, uk-2002 discussion) and a distance-2 option (§5.2 mentions
// distance-k coloring).
package coloring

import (
	"fmt"
	"math"
	"sync/atomic"

	"grappolo/internal/graph"
	"grappolo/internal/par"
)

// Coloring is the result of a coloring run: a color per vertex in
// [0, NumColors) and the vertex sets grouped by color.
type Coloring struct {
	Colors    []int32   // color of each vertex
	NumColors int       // number of distinct colors
	Sets      [][]int32 // Sets[c] lists the vertices of color c, ascending
	Rounds    int       // speculative rounds used (1 for serial greedy)
}

// Stats summarizes a coloring's color-set size distribution. The paper uses
// the count and relative standard deviation of set sizes to explain the
// poor speedup on uk-2002 (943 colors, RSD 18.876). The arc fields describe
// the per-set total ARC counts — the metric the colored sweep's work is
// actually proportional to; they are populated only by ComputeStatsOn,
// which has the graph to count arcs from.
type Stats struct {
	NumColors int
	MaxSet    int
	MinSet    int
	AvgSet    float64
	RSD       float64 // stddev(set size) / mean(set size)
	MaxArcs   int64
	MinArcs   int64
	AvgArcs   float64
	ArcRSD    float64 // stddev(set arc count) / mean(set arc count)
}

// ComputeStats derives the vertex-count distribution statistics of c. The
// arc fields stay zero; use ComputeStatsOn for them.
func (c *Coloring) ComputeStats() Stats {
	st := Stats{NumColors: c.NumColors, MinSet: math.MaxInt}
	if c.NumColors == 0 {
		st.MinSet = 0
		return st
	}
	var sum, sumSq float64
	for _, set := range c.Sets {
		s := len(set)
		if s > st.MaxSet {
			st.MaxSet = s
		}
		if s < st.MinSet {
			st.MinSet = s
		}
		sum += float64(s)
		sumSq += float64(s) * float64(s)
	}
	mean := sum / float64(c.NumColors)
	st.AvgSet = mean
	variance := sumSq/float64(c.NumColors) - mean*mean
	if variance < 0 {
		variance = 0
	}
	if mean > 0 {
		st.RSD = math.Sqrt(variance) / mean
	}
	return st
}

// ComputeStatsOn derives the full distribution statistics of c on g,
// including the per-set total arc counts (§6.2's skew metric weighted the
// way the colored sweep actually pays for it).
func (c *Coloring) ComputeStatsOn(g *graph.Graph) Stats {
	st := c.ComputeStats()
	if c.NumColors == 0 {
		return st
	}
	st.MinArcs = math.MaxInt64
	var sum, sumSq float64
	for _, set := range c.Sets {
		var arcs int64
		for _, v := range set {
			arcs += int64(g.OutDegree(int(v)))
		}
		if arcs > st.MaxArcs {
			st.MaxArcs = arcs
		}
		if arcs < st.MinArcs {
			st.MinArcs = arcs
		}
		sum += float64(arcs)
		sumSq += float64(arcs) * float64(arcs)
	}
	mean := sum / float64(c.NumColors)
	st.AvgArcs = mean
	variance := sumSq/float64(c.NumColors) - mean*mean
	if variance < 0 {
		variance = 0
	}
	if mean > 0 {
		st.ArcRSD = math.Sqrt(variance) / mean
	}
	return st
}

// String renders the stats compactly. Arc fields appear only when populated
// (ComputeStatsOn).
func (s Stats) String() string {
	out := fmt.Sprintf("colors=%d sizes[min=%d avg=%.1f max=%d] rsd=%.3f",
		s.NumColors, s.MinSet, s.AvgSet, s.MaxSet, s.RSD)
	if s.MaxArcs > 0 {
		out += fmt.Sprintf(" arcs[min=%d avg=%.1f max=%d] arcrsd=%.3f",
			s.MinArcs, s.AvgArcs, s.MaxArcs, s.ArcRSD)
	}
	return out
}

// load/store wrap atomic access to the shared tentative-color array; the
// speculative phase reads neighbors' colors while other workers assign
// theirs, exactly like the OpenMP original, and the atomics make that
// well-defined under the Go memory model.
func load(colors []int32, i int32) int32 { return atomic.LoadInt32(&colors[i]) }
func store(colors []int32, i, c int32)   { atomic.StoreInt32(&colors[i], c) }

// Greedy computes a serial first-fit distance-1 coloring in vertex order.
// It is the reference implementation used by tests and small graphs.
func Greedy(g *graph.Graph) *Coloring {
	n := g.N()
	colors := make([]int32, n)
	for i := range colors {
		colors[i] = -1
	}
	var mark []bool
	numColors := 0
	for i := 0; i < n; i++ {
		nbr, _ := g.Neighbors(i)
		if len(mark) < numColors+1 {
			mark = make([]bool, numColors+1)
		}
		use := mark[:numColors+1]
		for t := range use {
			use[t] = false
		}
		for _, j := range nbr {
			if int(j) != i && colors[j] >= 0 {
				use[colors[j]] = true
			}
		}
		c := int32(0)
		for int(c) < len(use) && use[c] {
			c++
		}
		colors[i] = c
		if int(c) == numColors {
			numColors++
		}
	}
	return assemble(colors, numColors, 1)
}

// Parallel computes a distance-1 coloring with p workers using speculative
// rounds. The result is a valid coloring for any schedule; the exact colors
// may vary with p (as the paper notes for its coloring-dependent outputs).
func Parallel(g *graph.Graph, p int) *Coloring {
	return ParallelWith(g, p, nil)
}

// ParallelWith is Parallel drawing every working buffer — including the
// returned Coloring's storage — from s (see Scratch for ownership rules).
// A nil s allocates a private scratch, making it equivalent to Parallel.
func ParallelWith(g *graph.Graph, p int, s *Scratch) *Coloring {
	if s == nil {
		s = NewScratch()
	}
	n := g.N()
	colors := par.Resize(s.colors, n)
	s.colors = colors
	for i := range colors {
		colors[i] = -1
	}
	worklist := par.Resize(s.worklist, n)
	s.worklist = worklist
	for i := range worklist {
		worklist[i] = int32(i)
	}
	conflictFlags := par.Resize(s.conflicts, n)
	s.conflicts = conflictFlags
	markers := s.growMarkers(par.Workers(p, n), 0)
	rounds := 0
	for len(worklist) > 0 {
		rounds++
		ctx := &s.spc
		*ctx = specCtx{g: g, colors: colors, worklist: worklist,
			markers: markers, flags: conflictFlags[:len(worklist)]}
		// Phase 1: speculative tentative coloring of every worklist vertex.
		// Neighbor colors move under our feet (by design); each worker marks
		// whatever colors it observes in its flat generation-stamped marker
		// and takes the smallest unmarked one.
		par.ForChunkCtx(ctx, len(worklist), p, 0, speculatePhase)
		// Phase 2: conflict detection. Colors are stable during this phase;
		// of two adjacent same-colored vertices the higher id loses and is
		// recolored next round.
		par.ForChunkCtx(ctx, len(worklist), p, 0, conflictPhase)
		next := worklist[:0]
		for t, f := range ctx.flags {
			if f {
				next = append(next, worklist[t])
			}
		}
		for _, i := range next {
			colors[i] = -1
		}
		worklist = next
	}
	s.spc = specCtx{} // drop graph/slice references until the next kernel call
	numColors := 0
	for _, c := range colors {
		if int(c)+1 > numColors {
			numColors = int(c) + 1
		}
	}
	return assembleInto(s, colors, numColors, rounds)
}

// specCtx carries one speculative round's state into the captureless loop
// bodies, passed by pointer (see par.ForChunkCtx and the Scratch field
// comment: capturing closures — or by-value contexts over 128 bytes — would
// heap-allocate at every round even on a single worker).
type specCtx struct {
	g        *graph.Graph
	colors   []int32
	worklist []int32
	markers  []*par.Marker
	flags    []bool
}

func speculatePhase(c *specCtx, w, lo, hi int) {
	used := c.markers[w]
	for t := lo; t < hi; t++ {
		i := c.worklist[t]
		used.Reset()
		nbr, _ := c.g.Neighbors(int(i))
		for _, j := range nbr {
			if j != i {
				if cc := load(c.colors, j); cc >= 0 {
					if int(cc) >= used.Universe() {
						used.Grow(int(cc) + 2) // Grow preserves this epoch's marks
					}
					used.Set(cc)
				}
			}
		}
		cc := int32(0)
		for int(cc) < used.Universe() && used.Has(cc) {
			cc++
		}
		store(c.colors, i, cc)
	}
}

func conflictPhase(c *specCtx, _, lo, hi int) {
	for t := lo; t < hi; t++ {
		i := c.worklist[t]
		conflict := false
		nbr, _ := c.g.Neighbors(int(i))
		for _, j := range nbr {
			if j != i && c.colors[j] == c.colors[i] && i > j {
				conflict = true
				break
			}
		}
		c.flags[t] = conflict
	}
}

// ParallelDistance2 computes a distance-2 coloring (no vertex shares a color
// with any vertex at distance <= 2) with the same speculative scheme. The
// paper (§5.2) discusses distance-k coloring as a stricter variant; it is
// exposed for ablation studies.
func ParallelDistance2(g *graph.Graph, p int) *Coloring {
	return ParallelDistance2With(g, p, nil)
}

// ParallelDistance2With is ParallelDistance2 drawing every working buffer
// from s (see Scratch for ownership rules); nil s allocates a private one.
func ParallelDistance2With(g *graph.Graph, p int, s *Scratch) *Coloring {
	if s == nil {
		s = NewScratch()
	}
	n := g.N()
	colors := par.Resize(s.colors, n)
	s.colors = colors
	for i := range colors {
		colors[i] = -1
	}
	worklist := par.Resize(s.worklist, n)
	s.worklist = worklist
	for i := range worklist {
		worklist[i] = int32(i)
	}
	conflicts := par.Resize(s.conflicts, n)
	s.conflicts = conflicts
	// Per-worker flat color marks, reused (and kept grown) across chunks,
	// rounds and — via the scratch — whole colorings. Later rounds shrink the
	// worklist, so this count always covers the loop's effective worker
	// indices.
	markers := s.growMarkers(par.Workers(p, n), 0)
	rounds := 0
	for len(worklist) > 0 {
		rounds++
		ctx := &s.spc
		*ctx = specCtx{g: g, colors: colors, worklist: worklist,
			markers: markers, flags: conflicts[:len(worklist)]}
		par.ForChunkCtx(ctx, len(worklist), p, 0, speculatePhase2)
		par.ForChunkCtx(ctx, len(worklist), p, 0, conflictPhase2)
		next := worklist[:0]
		for t, f := range ctx.flags {
			if f {
				next = append(next, worklist[t])
			}
		}
		for _, i := range next {
			colors[i] = -1
		}
		worklist = next
	}
	s.spc = specCtx{} // drop graph/slice references until the next kernel call
	numColors := 0
	for _, c := range colors {
		if int(c)+1 > numColors {
			numColors = int(c) + 1
		}
	}
	return assembleInto(s, colors, numColors, rounds)
}

// speculatePhase2 and conflictPhase2 are the distance-2 analogs of
// speculatePhase/conflictPhase: they extend marking and conflict checks to
// the two-hop neighborhood.
func speculatePhase2(c *specCtx, w, lo, hi int) {
	used := c.markers[w]
	for t := lo; t < hi; t++ {
		i := c.worklist[t]
		used.Reset()
		mark := func(cc int32) {
			if int(cc) >= used.Universe() {
				used.Grow(int(cc) + 2) // Grow preserves this epoch's marks
			}
			used.Set(cc)
		}
		nbr, _ := c.g.Neighbors(int(i))
		for _, j := range nbr {
			if j != i {
				if cc := load(c.colors, j); cc >= 0 {
					mark(cc)
				}
			}
			nbr2, _ := c.g.Neighbors(int(j))
			for _, k := range nbr2 {
				if k != i {
					if cc := load(c.colors, k); cc >= 0 {
						mark(cc)
					}
				}
			}
		}
		cc := int32(0)
		for int(cc) < used.Universe() && used.Has(cc) {
			cc++
		}
		store(c.colors, i, cc)
	}
}

func conflictPhase2(c *specCtx, _, lo, hi int) {
	for t := lo; t < hi; t++ {
		i := c.worklist[t]
		conflict := false
		check := func(k int32) {
			if k != i && c.colors[k] == c.colors[i] && i > k {
				conflict = true
			}
		}
		nbr, _ := c.g.Neighbors(int(i))
		for _, j := range nbr {
			if conflict {
				break
			}
			check(j)
			nbr2, _ := c.g.Neighbors(int(j))
			for _, k := range nbr2 {
				check(k)
			}
		}
		c.flags[t] = conflict
	}
}

// Verify checks that colors form a valid distance-1 coloring of g.
func Verify(g *graph.Graph, colors []int32) error {
	if len(colors) != g.N() {
		return fmt.Errorf("coloring: length %d != n %d", len(colors), g.N())
	}
	for i := 0; i < g.N(); i++ {
		if colors[i] < 0 {
			return fmt.Errorf("coloring: vertex %d uncolored", i)
		}
		nbr, _ := g.Neighbors(i)
		for _, j := range nbr {
			if int(j) != i && colors[j] == colors[i] {
				return fmt.Errorf("coloring: conflict on edge {%d,%d} color %d", i, j, colors[i])
			}
		}
	}
	return nil
}

// VerifyDistance2 checks that no two distinct vertices at distance <= 2
// share a color.
func VerifyDistance2(g *graph.Graph, colors []int32) error {
	if err := Verify(g, colors); err != nil {
		return err
	}
	for i := 0; i < g.N(); i++ {
		nbr, _ := g.Neighbors(i)
		for _, j := range nbr {
			nbr2, _ := g.Neighbors(int(j))
			for _, k := range nbr2 {
				if int(k) != i && colors[k] == colors[i] {
					return fmt.Errorf("coloring: distance-2 conflict %d..%d via %d", i, k, j)
				}
			}
		}
	}
	return nil
}
