// Package par provides the parallel-execution substrate used throughout the
// repository: bounded worker pools over index ranges (the Go analog of
// "#pragma omp parallel for"), parallel reductions, parallel prefix sums,
// and lock-free atomic accumulators.
//
// Every parallel loop runs through one fork-join dispatcher (loop.run): p
// workers claim chunk indices from one shared cursor until the range is
// exhausted, with an optional barrier between stages. The schedules differ
// only in how they cut a range into chunks:
//
//   - count (ForChunkCtx): fixed-size chunks of grain items, OpenMP's
//     "schedule(dynamic, grain)";
//   - prefix (ForChunkPrefixCtx): chunk bounds balanced by cumulative item
//     weight;
//   - static (ForStaticCtx): one contiguous slab per worker, OpenMP's
//     "schedule(static)", with the slab index passed to the body;
//   - staged (ForStagesCtx): a sequence of count-cut stages separated by
//     barriers.
//
// All functions take an explicit worker count so that callers (and the
// benchmark harness reproducing the paper's thread sweeps) control the
// degree of parallelism precisely rather than relying on GOMAXPROCS.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when a caller passes a
// non-positive value: the number of usable CPUs.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// normWorkers clamps p to [1, n] with the default substituted for p <= 0.
// n is the amount of work available; there is no point spawning more
// goroutines than work items.
func normWorkers(p, n int) int {
	if p <= 0 {
		p = DefaultWorkers()
	}
	if n < 1 {
		return 1
	}
	if p > n {
		p = n
	}
	return p
}

// Workers returns the effective worker count a loop over n items will use
// for a requested parallelism p: p clamped to [1, n] with the default
// substituted for p <= 0. The index a loop body receives is always below
// it: the claiming worker for ForChunkCtx, ForChunkPrefixCtx and
// ForStagesCtx (n being the largest stage), the slab for ForStaticCtx.
// Callers sizing per-worker state (scratch pools or partial results indexed
// by that argument) should allocate exactly this many slots.
func Workers(p, n int) int { return normWorkers(p, n) }

// cut names how a loop's range is split into chunks, the one thing that
// differs between the schedules.
type cut uint8

const (
	cutCount  cut = iota // chunks of grain items
	cutPrefix            // min(p*8, n) chunks balanced by prefix weight
	cutStatic            // p slabs; the body gets the slab index
)

// loop is one fork-join: p workers claim chunk indices of the open stage
// from next, and the last worker to finish a stage opens the following one.
// Plain loops are one stage of n items; ForStagesCtx sets count, staged and
// stages instead.
type loop[C any] struct {
	ctx    C
	body   func(ctx C, worker, lo, hi int)
	staged func(ctx C, stage, worker, lo, hi int)
	count  func(ctx C, stage int) int
	stages int
	cut    cut
	n      int
	grain  int // cutCount chunk size; <= 0 selects n/(p*8)
	prefix []int64
	p      int

	next    atomic.Int64 // next chunk index of the open stage
	arrived atomic.Int32 // workers done with the open stage
	release atomic.Int32 // index of the open stage
	wg      sync.WaitGroup
}

// run forks l.p workers and joins them. It holds the package's only go
// statement: every parallel loop is dispatched from here.
func (l *loop[C]) run() {
	l.wg.Add(l.p)
	for w := 0; w < l.p; w++ {
		go l.work(w)
	}
	l.wg.Wait()
}

// work is worker w's share of the loop. Between stages it arrives at a
// barrier in epoch form: the last arriver rearms the cursor and then
// advances release, which the others spin on (yielding to the scheduler
// between polls, so oversubscribed hosts make progress). The cursor reset is
// ordered before the release, so no worker claims stage s+1 work against a
// stale cursor.
func (l *loop[C]) work(w int) {
	defer l.wg.Done()
	for s := 0; s < l.stages; s++ {
		for l.release.Load() < int32(s) {
			runtime.Gosched()
		}
		n, grain, chunks := l.plan(s)
		for {
			c := int(l.next.Add(1)) - 1
			if c >= chunks {
				break
			}
			lo, hi := l.span(c, n, grain, chunks)
			if lo >= hi {
				continue
			}
			idx := w
			if l.cut == cutStatic {
				idx = c
			}
			if l.staged != nil {
				l.staged(l.ctx, s, idx, lo, hi)
			} else {
				l.body(l.ctx, idx, lo, hi)
			}
		}
		if s+1 < l.stages && int(l.arrived.Add(1)) == l.p {
			l.arrived.Store(0)
			l.next.Store(0)
			l.release.Add(1)
		}
	}
}

// plan returns stage s's item count, chunk size (cutCount only) and chunk
// count.
func (l *loop[C]) plan(s int) (n, grain, chunks int) {
	n = l.n
	if l.count != nil {
		n = l.count(l.ctx, s)
	}
	switch l.cut {
	case cutPrefix:
		return n, 0, min(l.p*8, n)
	case cutStatic:
		return n, 0, l.p
	}
	grain = l.grain
	if grain <= 0 {
		grain = max(n/(l.p*8), 1)
	}
	return n, grain, (n + grain - 1) / grain
}

// span returns chunk c's item range [lo, hi), which may be empty.
func (l *loop[C]) span(c, n, grain, chunks int) (lo, hi int) {
	switch l.cut {
	case cutPrefix:
		return l.bound(c, n, chunks), l.bound(c+1, n, chunks)
	case cutStatic:
		return c * n / l.p, (c + 1) * n / l.p
	}
	lo = c * grain
	return lo, min(lo+grain, n)
}

// bound is the start of prefix chunk c: the smallest i with
// prefix[i]-prefix[0] >= c·total/chunks. Zero-weight runs collapse into one
// boundary, possibly leaving empty chunks.
func (l *loop[C]) bound(c, n, chunks int) int {
	if c <= 0 {
		return 0
	}
	if c >= chunks {
		return n
	}
	total := l.prefix[n] - l.prefix[0]
	target := l.prefix[0] + int64(c)*total/int64(chunks)
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.prefix[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ForChunk runs body(lo, hi) over disjoint chunks covering [0, n) using p
// workers. Chunks are claimed from a shared atomic cursor, mirroring
// OpenMP's "schedule(dynamic, grain)", which the paper's irregular sweeps
// need (vertex costs are proportional to degree and highly skewed on
// several inputs). grain is the chunk size; grain <= 0 selects a size that
// yields roughly 8 chunks per worker, a reasonable balance between
// scheduling overhead and load balance for skewed work.
func ForChunk(n, p, grain int, body func(lo, hi int)) {
	ForChunkCtx(body, n, p, grain, func(b func(lo, hi int), _, lo, hi int) { b(lo, hi) })
}

// ForChunkCtx is ForChunk with an explicit context value and the claiming
// worker's index (in [0, Workers(p, n))) passed to the body, so callers can
// reuse per-worker scratch state (e.g. a SparseAccum per worker) across
// chunks instead of allocating per chunk. Chunks are still dynamically
// scheduled: the worker index only identifies the goroutine, not a static
// range.
//
// The context value ctx is threaded into the body instead of captured by
// it. A CAPTURELESS body literal is a static function value, so — unlike
// the closure-based variants, whose body parameter escapes into the worker
// goroutines and therefore heap-allocates the capturing closure at every
// call site — a single-worker call allocates nothing. The pooled-engine hot
// loops use these ...Ctx forms so a warmed Engine.Run is allocation-free
// end to end. Each ...Ctx form returns early for one effective worker,
// before the dispatcher's state exists.
func ForChunkCtx[C any](ctx C, n, p, grain int, body func(ctx C, worker, lo, hi int)) {
	p = normWorkers(p, n)
	if n == 0 {
		return
	}
	if p == 1 {
		body(ctx, 0, 0, n)
		return
	}
	(&loop[C]{ctx: ctx, body: body, stages: 1, n: n, grain: grain, p: p}).run()
}

// ForChunkPrefix runs body(worker, lo, hi) over disjoint chunks covering
// [0, n) whose boundaries are balanced by cumulative item WEIGHT rather than
// item count. prefix must be an exclusive prefix sum of length n+1
// (prefix[i] = total weight of items [0, i); a graph's CSR offset array is
// exactly this for per-vertex arc counts). Roughly 8 weight-balanced chunks
// per worker are dynamically scheduled, so a handful of heavy items (hub
// vertices on skewed inputs) cannot serialize a sweep the way count-based
// chunking lets them.
func ForChunkPrefix(prefix []int64, p int, body func(worker, lo, hi int)) {
	ForChunkPrefixCtx(body, prefix, p, func(b func(worker, lo, hi int), w, lo, hi int) {
		b(w, lo, hi)
	})
}

// ForChunkPrefixCtx is ForChunkPrefix with an explicit context value (see
// ForChunkCtx for why: captureless bodies make single-worker calls
// allocation-free).
func ForChunkPrefixCtx[C any](ctx C, prefix []int64, p int, body func(ctx C, worker, lo, hi int)) {
	n := len(prefix) - 1
	if n <= 0 {
		return
	}
	p = normWorkers(p, n)
	if p == 1 || prefix[n] <= prefix[0] {
		body(ctx, 0, 0, n)
		return
	}
	(&loop[C]{ctx: ctx, body: body, stages: 1, cut: cutPrefix, n: n, prefix: prefix, p: p}).run()
}

// ForStatic runs body(slab, lo, hi) over p contiguous slabs of [0, n), slab
// c being [c·n/p, (c+1)·n/p) (OpenMP "schedule(static)"). Use when per-item
// cost is uniform or when per-slab state (e.g. partial sums combined in slab
// order, or one RNG stream per slab) is needed: the slab index, not the
// claiming goroutine, is what the body receives, so the mapping from index to
// range is fixed for a given p.
func ForStatic(n, p int, body func(slab, lo, hi int)) {
	ForStaticCtx(body, n, p, func(b func(slab, lo, hi int), c, lo, hi int) {
		b(c, lo, hi)
	})
}

// ForStaticCtx is ForStatic with an explicit context value (see ForChunkCtx
// for why: captureless bodies make single-worker calls allocation-free).
func ForStaticCtx[C any](ctx C, n, p int, body func(ctx C, slab, lo, hi int)) {
	p = normWorkers(p, n)
	if n == 0 {
		return
	}
	if p == 1 {
		body(ctx, 0, 0, n)
		return
	}
	(&loop[C]{ctx: ctx, body: body, stages: 1, cut: cutStatic, n: n, p: p}).run()
}

// SumFloat64Ctx computes the sum of f(ctx, i) over [0, n) in parallel with
// a deterministic reduction order (per-slab partials combined in slab
// order), so results are reproducible for a fixed p. The context value is
// explicit (see ForChunkCtx for why: captureless bodies make single-worker
// calls allocation-free).
func SumFloat64Ctx[C any](ctx C, n, p int, f func(ctx C, i int) float64) float64 {
	p = normWorkers(p, n)
	if p == 1 {
		s := 0.0
		for i := 0; i < n; i++ {
			s += f(ctx, i)
		}
		return s
	}
	// The closure-based ForStatic is deliberate here: the parallel path
	// allocates for its goroutines anyway, and the ...Ctx contract
	// (capturebody-enforced) reserves the Ctx helpers for captureless
	// bodies. The allocation-free case is the p == 1 early return above.
	partials := make([]float64, p)
	ForStatic(n, p, func(c, lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += f(ctx, i)
		}
		partials[c] = s
	})
	total := 0.0
	for _, s := range partials {
		total += s
	}
	return total
}

// MaxInt64Ctx computes the maximum of f(ctx, i) over [0, n) in parallel. It
// returns 0 for n == 0. The context value is explicit (see ForChunkCtx for
// why: captureless bodies make single-worker calls allocation-free).
func MaxInt64Ctx[C any](ctx C, n, p int, f func(ctx C, i int) int64) int64 {
	if n == 0 {
		return 0
	}
	p = normWorkers(p, n)
	if p == 1 {
		m := f(ctx, 0)
		for i := 1; i < n; i++ {
			if v := f(ctx, i); v > m {
				m = v
			}
		}
		return m
	}
	partials := make([]int64, p)
	ForStatic(n, p, func(c, lo, hi int) {
		m := f(ctx, lo)
		for i := lo + 1; i < hi; i++ {
			if v := f(ctx, i); v > m {
				m = v
			}
		}
		partials[c] = m
	})
	m := partials[0]
	for _, v := range partials[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ExclusivePrefixSum replaces v with its exclusive prefix sum and returns
// the total. With p > 1 it uses the classic two-pass blocked scan (per-block
// sums, scan of block sums, block-local scan); the paper lists exactly this
// parallelization as the fix for its serial community-renumbering step.
func ExclusivePrefixSum(v []int64, p int) int64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	p = normWorkers(p, n)
	if p == 1 || n < 4096 {
		var run int64
		for i := range v {
			v[i], run = run, run+v[i]
		}
		return run
	}
	blockSums := make([]int64, p)
	ForStatic(n, p, func(c, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += v[i]
		}
		blockSums[c] = s
	})
	var run int64
	for c := range blockSums {
		blockSums[c], run = run, run+blockSums[c]
	}
	ForStatic(n, p, func(c, lo, hi int) {
		acc := blockSums[c]
		for i := lo; i < hi; i++ {
			v[i], acc = acc, acc+v[i]
		}
	})
	return run
}

// Float64 is a float64 cell supporting lock-free atomic addition, the Go
// analog of the paper's __sync_fetch_and_add on doubles. The zero value is
// ready to use and holds 0.
type Float64 struct {
	bits atomic.Uint64
}

// Load returns the current value.
func (a *Float64) Load() float64 { return fromBits(a.bits.Load()) }

// Store sets the value.
func (a *Float64) Store(v float64) { a.bits.Store(toBits(v)) }

// Add atomically adds delta and returns the new value.
func (a *Float64) Add(delta float64) float64 {
	for {
		old := a.bits.Load()
		next := fromBits(old) + delta
		if a.bits.CompareAndSwap(old, toBits(next)) {
			return next
		}
	}
}

// AddFloat64 atomically adds delta to the float64 at *cell, which must be
// aligned (Go guarantees 8-byte alignment for float64 slice elements). It is
// used for dense arrays of accumulators where a []Float64 would waste cache
// on padding-free but pointer-heavy layouts.
func AddFloat64(cell *float64, delta float64) {
	addr := (*atomic.Uint64)(ptr(cell))
	for {
		old := addr.Load()
		next := fromBits(old) + delta
		if addr.CompareAndSwap(old, toBits(next)) {
			return
		}
	}
}

// LoadFloat64 atomically reads the float64 at *cell. Pair with AddFloat64
// when readers run concurrently with writers (the paper's colored sweeps
// read community degrees while other vertices update them).
func LoadFloat64(cell *float64) float64 {
	return fromBits((*atomic.Uint64)(ptr(cell)).Load())
}
