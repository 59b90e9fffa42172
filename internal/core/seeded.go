package core

import (
	"context"
	"fmt"

	"grappolo/internal/graph"
)

// SweepSeeded runs the local-move iterations of a single phase on g with the
// initial membership SEEDED from seed instead of singletons, and the vertex
// suffix [own, g.N()) PINNED: pinned vertices contribute their degrees to
// community aggregates and attract movable neighbors, but never change
// community themselves. It is the per-shard kernel of the sharded engine —
// locals occupy [0, own), frozen ghost images of other shards' boundary
// vertices occupy the pinned suffix (exactly the layout
// graph.GhostSubgraph produces), and each synchronized exchange round
// re-seeds from the latest cross-shard labels and sweeps again.
//
// Sweeps are always uncolored snapshot sweeps regardless of the engine's
// coloring configuration, so the outcome is deterministic for any worker
// count; iteration stops when the modularity gain of a sweep falls below
// the engine's FinalThreshold (or MaxIterations is reached). Labels in seed
// must lie in [0, g.N()); the final membership — drawn from seed's label
// set, pinned entries unchanged — is written into out (length g.N()).
// Returns the iteration count and the final modularity of the assignment on
// g. Only the modularity objective is supported, and a graph whose total
// weight is not finite is rejected with an error wrapping graph.ErrBadWeight.
//
// The sweep shares the engine's pooled phase scratch: a warmed engine
// re-sweeping a same-shaped graph allocates nothing. Like Run, SweepSeeded
// must not be called concurrently with any other run on the same engine.
func (e *Engine) SweepSeeded(ctx context.Context, g *graph.Graph, seed []int32, own int, out []int32) (int, float64, error) {
	if err := g.CheckWeight(); err != nil {
		return 0, 0, err
	}
	n := g.N()
	if e.opts.Objective == ObjCPM {
		return 0, 0, fmt.Errorf("core: SweepSeeded supports the modularity objective only")
	}
	if len(seed) != n {
		return 0, 0, fmt.Errorf("core: seed length %d != n %d", len(seed), n)
	}
	if len(out) != n {
		return 0, 0, fmt.Errorf("core: out length %d != n %d", len(out), n)
	}
	if own < 0 || own > n {
		return 0, 0, fmt.Errorf("core: pinned-suffix start %d out of range [0,%d]", own, n)
	}
	for i, c := range seed {
		if c < 0 || int(c) >= n {
			return 0, 0, fmt.Errorf("core: seed[%d] = %d out of label range [0,%d)", i, c, n)
		}
	}

	workers := e.opts.Workers
	e.runCtx = ctx
	e.cancel.Reset()
	defer func() { e.runCtx = nil }()

	st := &e.st
	st.reset(g, e.opts, nil, workers)
	copy(st.curr, seed)
	st.sweepOwn = own
	st.ctx, st.cancel = e.runCtx, &e.cancel
	defer func() { st.ctx = nil }()

	threshold := e.opts.FinalThreshold
	prevQ := st.score(workers)
	iters := 0
	for iter := 0; e.opts.MaxIterations == 0 || iter < e.opts.MaxIterations; iter++ {
		if st.stop() {
			return iters, prevQ, cancelErr(ctx)
		}
		st.sweepUncolored(workers)
		q := st.score(workers)
		iters++
		if q-prevQ < threshold {
			prevQ = q
			break
		}
		prevQ = q
	}
	if st.stop() {
		return iters, prevQ, cancelErr(ctx)
	}
	copy(out, st.curr)
	return iters, prevQ, nil
}
