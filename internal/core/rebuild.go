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

// rowArena is one worker's append-only staging area for aggregated
// community rows: rows land here in whatever order the worker claims
// communities, then a prefix sum over row lengths stitches them into the
// final CSR. Growth is amortized across all rows a worker produces — and,
// under the Engine, across every rebuild of every run — so the per-community
// map + slice allocations of the original implementation (the §5.5 rebuild
// bottleneck) are gone.
type rowArena struct {
	adj []int32
	w   []float64
}

// rebuildScratch owns every transient buffer of the coarsening step except
// the output CSR arrays (those live in the destination graphSlot, because
// the produced graph must survive until the NEXT rebuild). One instance is
// pooled per Engine; the free rebuild function uses a throwaway one.
type rebuildScratch struct {
	counts  []int64 // community member counts, then exclusive prefix sums
	cursor  []int64
	members []int32
	rowWk   []int32
	rowOff  []int64
	accs    []*par.SparseAccum
	arenas  []rowArena
	ctx     rebuildCtx // loop-body context (pointer-passed, see below)
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
	rowLen     []int64
	rowWk      []int32
	rowOff     []int64
	accs       []*par.SparseAccum
	arenas     []rowArena
	offsets    []int64
	adj        []int32
	weights    []float64
}

// rebuildInto constructs the next phase's coarsened graph from a dense
// membership (§5.4 step 4, §5.5): one meta-vertex per community, self-loop
// weight = 2×(intra non-loop weight) + member self-loops, inter-community
// edges aggregated symmetrically. All steps are parallel: vertices are
// grouped by community with a counting sort, then each community's row is
// aggregated independently into a per-worker flat accumulator (key order
// sorted ascending for deterministic rows), staged in a per-worker arena,
// and stitched into the final CSR with a prefix sum over row lengths —
// lock-free, allocation-amortized, no hashing anywhere. The output CSR and
// Graph header are recycled from slot, every working buffer from rb.
func rebuildInto(rb *rebuildScratch, slot *graphSlot, g *graph.Graph, membership []int32, numComm, workers int) *graph.Graph {
	n := g.N()
	ctx := &rb.ctx
	*ctx = rebuildCtx{g: g, membership: membership}

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

	// Aggregate each community's row into its worker's accumulator, keyed by
	// neighbor community. Adding ALL arcs (intra ones included) reproduces
	// the self-loop convention for free: key c accumulates 2×(intra non-loop
	// weight) + member self-loops, because internal non-loop arcs are visited
	// twice (u→v and v→u) and self-loops once.
	nw := par.Workers(workers, numComm)
	for len(rb.accs) < nw {
		rb.accs = append(rb.accs, nil)
	}
	for len(rb.arenas) < nw {
		rb.arenas = append(rb.arenas, rowArena{})
	}
	for w := 0; w < nw; w++ {
		rb.arenas[w].adj = rb.arenas[w].adj[:0]
		rb.arenas[w].w = rb.arenas[w].w[:0]
	}
	rowLen := par.Resize(slot.offsets, numComm+1) // row lengths, then CSR offsets in place
	rowWk := par.Resize(rb.rowWk, numComm)        // which worker's arena holds row c
	rb.rowWk = rowWk
	rowOff := par.Resize(rb.rowOff, numComm) // at which offset in that arena
	rb.rowOff = rowOff
	rowLen[numComm] = 0
	ctx.rowLen, ctx.rowWk, ctx.rowOff = rowLen, rowWk, rowOff
	ctx.accs, ctx.arenas = rb.accs, rb.arenas
	// starts doubles as a member-count prefix sum over communities, so the
	// aggregation chunks balance by community size rather than community
	// count (one giant community can no longer serialize the rebuild).
	par.ForChunkPrefixCtx(ctx, starts, workers, func(ct *rebuildCtx, w, lo, hi int) {
		acc := ct.accs[w]
		if acc == nil {
			acc = par.NewSparseAccum(len(ct.rowLen)-1, 0)
			ct.accs[w] = acc
		} else {
			acc.Grow(len(ct.rowLen) - 1)
		}
		ar := &ct.arenas[w]
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
			ct.rowLen[c] = int64(len(keys))
			ct.rowWk[c] = int32(w)
			ct.rowOff[c] = int64(len(ar.adj))
			for _, k := range keys {
				ar.adj = append(ar.adj, k)
				ar.w = append(ar.w, acc.Get(k))
			}
		}
	})

	totalArcs := par.ExclusivePrefixSum(rowLen, workers)
	offsets := rowLen // rowLen now holds the exclusive prefix sums
	adj := par.Resize(slot.adj, int(totalArcs))
	weights := par.Resize(slot.weights, int(totalArcs))
	ctx.offsets, ctx.adj, ctx.weights = offsets, adj, weights
	par.ForChunkCtx(ctx, numComm, workers, 0, func(ct *rebuildCtx, _, lo, hi int) {
		for c := lo; c < hi; c++ {
			cnt := ct.offsets[c+1] - ct.offsets[c]
			ar := &ct.arenas[ct.rowWk[c]]
			copy(ct.adj[ct.offsets[c]:ct.offsets[c+1]], ar.adj[ct.rowOff[c]:ct.rowOff[c]+cnt])
			copy(ct.weights[ct.offsets[c]:ct.offsets[c+1]], ar.w[ct.rowOff[c]:ct.rowOff[c]+cnt])
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
	return rebuildInto(&rebuildScratch{}, &graphSlot{}, g, membership, numComm, workers)
}
