package core

import (
	"sync/atomic"

	"grappolo/internal/graph"
	"grappolo/internal/par"
)

func atomicAdd64(cell *int64, d int64) int64 { return atomic.AddInt64(cell, d) }

func atomicLoad64(cell *int64) int64 { return atomic.LoadInt64(cell) }

func atomicLoad32(cell *int32) int32     { return atomic.LoadInt32(cell) }
func atomicStore32(cell *int32, v int32) { atomic.StoreInt32(cell, v) }

// renumberCtx carries the renumbering arrays into the captureless loop bodies
// (see par.ForChunkCtx for why closures are avoided on pooled paths).
type renumberCtx struct {
	comm     []int32
	occupied []int64
	out      []int32
}

// renumberParallelInto maps arbitrary community ids in [0, len(comm)) to
// dense ids [0, k) in out, preserving ascending id order, using a parallel
// occupancy scan + prefix sum. This is the parallelization of the rebuild
// step the paper performs serially (§5.5: "this step is currently implemented
// in serial, although our future plan is to explore a parallelization using
// prefix computation"). out must have length len(comm) and occupied length
// len(comm)+1; both are caller-pooled (the Engine reuses them across phases
// and runs).
func renumberParallelInto(out []int32, occupied []int64, comm []int32, workers int) {
	n := len(comm)
	ctx := renumberCtx{comm: comm, occupied: occupied, out: out}
	par.ForChunkCtx(ctx, n+1, workers, 0, func(c renumberCtx, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			c.occupied[i] = 0
		}
	})
	par.ForChunkCtx(ctx, n, workers, 0, func(c renumberCtx, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			// Plain stores race benignly only in C; use atomic store of the
			// same value to stay well-defined (any winner writes 1).
			atomic.StoreInt64(&c.occupied[c.comm[i]], 1)
		}
	})
	par.ExclusivePrefixSum(occupied[:n+1], workers)
	// occupied[c] now holds the dense id of community c (valid where the
	// original flag was 1, i.e. occupied[c+1] == occupied[c]+1).
	par.ForChunkCtx(ctx, n, workers, 0, func(c renumberCtx, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			c.out[i] = int32(c.occupied[c.comm[i]])
		}
	})
}

// renumberParallel is the allocating convenience form of
// renumberParallelInto, used by tests and one-shot callers.
func renumberParallel(comm []int32, workers int) []int32 {
	out := make([]int32, len(comm))
	renumberParallelInto(out, make([]int64, len(comm)+1), comm, workers)
	return out
}

// renumberSerial is the paper's original serial renumbering, kept as an
// ablation mode (Options.SerialRenumber) so the Fig. 8/9 rebuild
// bottleneck can be reproduced.
func renumberSerial(comm []int32) []int32 {
	n := len(comm)
	dense := make([]int32, n+1)
	for i := range dense {
		dense[i] = -1
	}
	next := int32(0)
	out := make([]int32, n)
	// Ascending-id order to match the parallel version bit for bit.
	for i := 0; i < n; i++ {
		if dense[comm[i]] < 0 {
			dense[comm[i]] = 0 // mark
		}
	}
	for c := 0; c <= n; c++ {
		if c < len(dense) && dense[c] == 0 {
			dense[c] = next
			next++
		}
	}
	for i := 0; i < n; i++ {
		out[i] = dense[comm[i]]
	}
	return out
}

// rebuildScratch owns every transient buffer of the coarsening step except
// the output CSR arrays (those live in the destination graphSlot, because
// the produced graph must survive until the NEXT rebuild) and the row
// accumulators (borrowed from the caller). One instance is pooled per
// Engine; the free rebuild function uses a throwaway one.
type rebuildScratch struct {
	counts  []int64 // community member counts, then exclusive prefix sums
	cursor  []int64
	members []int32
	marks   []*par.Marker // per-worker distinct-neighbor sets of the count pass
	ctx     rebuildCtx    // loop-body context (pointer-passed, see below)
}

// rebuildCtx carries one rebuild's state into the captureless loop bodies.
// It is embedded in rebuildScratch and passed by pointer: by-value contexts
// over 128 bytes are captured by reference and would heap-move per call.
type rebuildCtx struct {
	g          *graph.Graph
	membership []int32
	starts     []int64
	cursor     []int64
	members    []int32
	marks      []*par.Marker
	accs       []*par.SparseAccum
	offsets    []int64
	adj        []int32
	weights    []float64
}

// rebuildInto constructs the next phase's coarsened graph from a dense
// membership (§5.4 step 4, §5.5): one meta-vertex per community, self-loop
// weight = 2×(intra non-loop weight) + member self-loops, inter-community
// edges aggregated symmetrically. All steps are parallel: vertices are
// grouped by community with a counting sort; a count pass sizes each
// community's row (its distinct neighbor communities, on a per-worker
// marker) and a prefix sum turns the counts into exact CSR offsets; a fill
// pass then aggregates each row on a per-worker flat accumulator and writes
// it, keys sorted ascending for deterministic rows, straight into its place
// in the CSR — lock-free, no staging copy, no hashing anywhere. accs must
// hold par.Workers(workers, numComm) accumulators over at least numComm
// keys (see growAccums). The output CSR and Graph header are recycled from
// slot, every other working buffer from rb.
func rebuildInto(rb *rebuildScratch, slot *graphSlot, accs []*par.SparseAccum, g *graph.Graph, membership []int32, numComm, workers int) *graph.Graph {
	n := g.N()
	ctx := &rb.ctx
	*ctx = rebuildCtx{g: g, membership: membership, accs: accs}

	// Group vertices by community: counting sort with atomic counters.
	counts := par.Resize(rb.counts, numComm+1)
	rb.counts = counts
	ctx.starts = counts
	par.ForChunkCtx(ctx, numComm+1, workers, 0, func(c *rebuildCtx, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			c.starts[i] = 0
		}
	})
	par.ForChunkCtx(ctx, n, workers, 0, func(c *rebuildCtx, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomicAdd64(&c.starts[c.membership[i]], 1)
		}
	})
	par.ExclusivePrefixSum(counts[:numComm+1], workers)
	starts := counts // counts now holds exclusive prefix sums; alias for clarity
	cursor := par.Resize(rb.cursor, numComm)
	rb.cursor = cursor
	copy(cursor, starts[:numComm])
	members := par.Resize(rb.members, n)
	rb.members = members
	ctx.cursor, ctx.members = cursor, members
	par.ForChunkCtx(ctx, n, workers, 0, func(c *rebuildCtx, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			pos := atomicAdd64(&c.cursor[c.membership[i]], 1) - 1
			c.members[pos] = int32(i)
		}
	})

	// Count pass: each community's row length is the number of distinct
	// communities its members' arcs reach. starts doubles as a member-count
	// prefix sum over communities, so both row passes chunk by community
	// size rather than community count (one giant community can no longer
	// serialize the rebuild).
	nw := par.Workers(workers, numComm)
	for len(rb.marks) < nw {
		rb.marks = append(rb.marks, par.NewMarker(numComm))
	}
	for _, m := range rb.marks[:nw] {
		m.Grow(numComm)
	}
	offsets := par.Resize(slot.offsets, numComm+1) // row lengths, then CSR offsets in place
	offsets[numComm] = 0
	ctx.marks, ctx.offsets = rb.marks, offsets
	par.ForChunkPrefixCtx(ctx, starts, workers, func(ct *rebuildCtx, w, lo, hi int) {
		mk := ct.marks[w]
		for c := lo; c < hi; c++ {
			mk.Reset()
			cnt := int64(0)
			for _, u := range ct.members[ct.starts[c]:ct.starts[c+1]] {
				nbr, _ := ct.g.Neighbors(int(u))
				for _, v := range nbr {
					if k := ct.membership[v]; !mk.Has(k) {
						mk.Set(k)
						cnt++
					}
				}
			}
			ct.offsets[c] = cnt
		}
	})
	totalArcs := par.ExclusivePrefixSum(offsets, workers)

	// Fill pass: aggregate each row into its worker's accumulator, keyed by
	// neighbor community, and write it in place. Adding ALL arcs (intra ones
	// included) reproduces the self-loop convention for free: key c
	// accumulates 2×(intra non-loop weight) + member self-loops, because
	// internal non-loop arcs are visited twice (u→v and v→u) and self-loops
	// once.
	adj := par.Resize(slot.adj, int(totalArcs))
	weights := par.Resize(slot.weights, int(totalArcs))
	ctx.adj, ctx.weights = adj, weights
	par.ForChunkPrefixCtx(ctx, starts, workers, func(ct *rebuildCtx, w, lo, hi int) {
		acc := ct.accs[w]
		for c := lo; c < hi; c++ {
			acc.Reset()
			for _, u := range ct.members[ct.starts[c]:ct.starts[c+1]] {
				nbr, wts := ct.g.Neighbors(int(u))
				for t, v := range nbr {
					acc.Add(ct.membership[v], wts[t])
				}
			}
			keys := acc.Keys()
			par.SortInt32(keys) // deterministic ascending row order
			row := ct.offsets[c]
			copy(ct.adj[row:], keys)
			for t, k := range keys {
				ct.weights[row+int64(t)] = acc.Get(k)
			}
		}
	})
	slot.offsets, slot.adj, slot.weights = offsets, adj, weights
	cg, err := graph.FromCSRInto(slot.g, offsets, adj, weights, workers, false)
	if err != nil {
		panic(err) // unreachable with check=false
	}
	slot.g = cg
	*ctx = rebuildCtx{} // drop graph/membership references until the next rebuild
	return cg
}

// rebuild is the one-shot form of rebuildInto with throwaway scratch, used by
// tests, benchmarks, and callers outside an Engine.
func rebuild(g *graph.Graph, membership []int32, numComm, workers int) *graph.Graph {
	accs := growAccums(nil, par.Workers(workers, numComm), numComm, 0)
	return rebuildInto(&rebuildScratch{}, &graphSlot{}, accs, g, membership, numComm, workers)
}
