package grappolo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"grappolo/internal/core"
	"grappolo/internal/faults"
	"grappolo/internal/graph"
)

// Batcher coalesces concurrent Detect calls on the same graph into one
// engine run fanned back out to every caller — the serving-layer analog of
// the paper's core idea that one well-parallelized run beats many redundant
// ones. Duplicate traffic (dashboards, retries, many users asking about the
// same dataset) is the common overload shape for a clustering service, and
// without coalescing a Pool runs the identical detection once per caller.
//
// Requests are grouped by a cheap structural fingerprint of the input graph
// (pointer-identity fast path, then exact vertex/arc counts and weight sum
// plus a sampled CSR content hash — see the caveat below) and by
// configuration: a Batcher fronts exactly one Pool, so every request it
// admits shares that pool's validated options and only the graph identity
// varies. The first arrival for a fingerprint becomes the batch LEADER: it
// queues for an engine through the pool's FIFO-fair admission, runs once,
// and the shared Result is copied out to each coalesced FOLLOWER (and to
// the leader itself), so every caller receives an independent Result with
// exactly the ownership semantics of an unbatched call.
//
// Fairness and cancellation: the leader inherits the pool's
// admission-order guarantee — batches are served in leader arrival order
// under overload — and followers piggyback on their leader's slot without
// consuming permits. A follower canceled while waiting returns its own
// ctx.Err() immediately and never leaks a permit; a LEADER canceled
// mid-flight aborts only its own call — surviving followers transparently
// retry, and the first retrier becomes the new leader (re-entering
// admission at the back of the queue).
//
// Correctness of coalescing: the sampled fingerprint keeps batch LOOKUP
// O(1) in graph size, but it is only the first-pass filter — before any
// request is served a shared result, its graph's exact full-content hash
// (Graph.StrongHash, computed once per immutable graph and memoized) is
// compared with the leader's. Two large graphs that agree on vertex count,
// arc count, total weight and every sampled arc but differ elsewhere
// therefore land in the same batch slot yet are NEVER served each other's
// result: the mismatching follower diverts to its own uncoalesced pool
// run. Collisions cost a batching opportunity, not correctness.
//
// A Batcher is safe for concurrent use by multiple goroutines.
type Batcher struct {
	pool *Pool

	mu       sync.Mutex
	inflight map[graph.Fingerprint]*batch
	free     *batch // recycled batch records (and their pooled shared Results)

	joins    atomic.Int64 // followers attached (test observability)
	batched  atomic.Int64 // followers actually served by a shared run
	canceled atomic.Int64
	diverted atomic.Int64 // sampled-collision followers served uncoalesced
}

// errDetectPanicked is fanned out to followers when a batch's engine run
// panics; the panic itself propagates through the leader, preserving the
// unbatched contract for the call that actually drove the engine. It
// matches ErrEngineFault (via EngineFaultError.Is), so followers and the
// Guard classify a leader's engine fault uniformly.
var errDetectPanicked error = &EngineFaultError{Panic: "batched engine run panicked in its leader"}

// batch is one in-flight coalesced run. Its mutex guards the follower list
// and lifecycle flags; the Batcher mutex guards only the inflight table and
// free list, and the two are never held together except table-side (b.mu →
// ba.mu) when initializing a recycled record.
type batch struct {
	mu        sync.Mutex
	key       graph.Fingerprint
	strong    uint64 // leader graph's exact content hash; joiners must match
	sealed    bool   // no more joiners; set when the outcome is fanned out (and while free-listed)
	followers []*follower
	shared    *Result // pooled run target, reused across generations
	next      *batch  // Batcher free list
}

// follower is one coalesced waiter. Delivery is arbitrated by the state
// word: the sealer claims a follower before copying into its res, a
// canceling waiter withdraws by claiming it first. Exactly one of out/err
// is set before ready is signaled, and ready is signaled for every CLAIMED
// follower — a canceler that loses the claim race waits for that signal
// (one copy, not the whole fan-out) so its res is never written after it
// returns.
type follower struct {
	state atomic.Int32  // followerWaiting → followerClaimed | followerCanceled
	ready chan struct{} // cap 1, signaled once iff claimed
	res   *Result       // caller-provided recycling target (may be nil)
	out   *Result
	err   error
}

const (
	followerWaiting int32 = iota
	followerClaimed
	followerCanceled
)

// NewBatcher returns a Batcher coalescing duplicate requests in front of
// pool. The pool remains usable directly — only traffic routed through the
// Batcher is coalesced.
func NewBatcher(pool *Pool) *Batcher {
	if pool == nil {
		panic("grappolo: NewBatcher requires a Pool")
	}
	return &Batcher{pool: pool, inflight: make(map[graph.Fingerprint]*batch)}
}

// Pool returns the pool the Batcher serves from.
func (b *Batcher) Pool() *Pool { return b.pool }

// Stats returns cumulative serving counters: the underlying pool's
// admission counters plus the Batcher's coalescing counters. Led is the
// number of engine runs, so (Batched+Led) completions against Led runs is
// the coalescing win.
func (b *Batcher) Stats() PoolStats {
	s := b.pool.Stats()
	s.Batched = b.batched.Load()
	s.Canceled += b.canceled.Load()
	return s
}

// A Batcher's engine counters include its coalescing, and its degraded
// set coalesces too.
func (b *Batcher) enginePool() *Pool          { return b.pool }
func (b *Batcher) engineStats() PoolStats     { return b.Stats() }
func (b *Batcher) degradedTier(dp *Pool) tier { return NewBatcher(dp) }

// Detect runs detection on g, coalescing with any identical in-flight
// request, and returns a fresh Result independent of the Batcher. See
// Detector.Detect for the cancellation contract.
func (b *Batcher) Detect(ctx context.Context, g *Graph) (*Result, error) {
	return b.DetectInto(ctx, g, nil)
}

// DetectInto is Detect recycling a caller-provided Result: the shared batch
// outcome is copied into res (grown only on shape change), so a warm
// same-shape request stream allocates nothing for leaders and O(1) per
// follower. A nil res allocates a fresh Result. On cancellation it returns
// (nil, ctx.Err()) and res's contents are undefined, but its storage may be
// passed to a later call — the same contract as Pool.DetectInto.
func (b *Batcher) DetectInto(ctx context.Context, g *Graph, res *Result) (*Result, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Both hashes are memoized on the Graph itself (computed at most once
	// per immutable graph, shared by every Batcher and Cache that sees it),
	// so a warm serving loop — even one alternating between several resident
	// graphs — pays two atomic loads here, no hashing and no allocation.
	key := g.Fingerprint()
	strong := g.StrongHash()
	for {
		out, err, retry := b.once(ctx, g, key, strong, res)
		if !retry {
			return out, err
		}
		// The batch this request raced with is already sealed (it completed,
		// or its leader was canceled out from under its followers). Check our
		// own context, then take a fresh pass — becoming the new leader if
		// no identical request is in flight anymore.
		if err := ctx.Err(); err != nil {
			b.canceled.Add(1)
			return nil, err
		}
	}
}

// once makes a single lead-or-follow attempt. retry means the observed
// batch was already sealed and the caller should re-resolve.
func (b *Batcher) once(ctx context.Context, g *Graph, key graph.Fingerprint, strong uint64, res *Result) (out *Result, err error, retry bool) {
	b.mu.Lock()
	ba := b.inflight[key]
	if ba == nil {
		ba = b.takeBatch(key, strong)
		b.inflight[key] = ba
		b.mu.Unlock()
		return b.lead(ctx, g, ba, res)
	}
	b.mu.Unlock()
	return b.follow(ctx, g, ba, key, strong, res)
}

// takeBatch pops a recycled batch record (or allocates one) and arms it for
// key. Caller holds b.mu; the nested ba.mu acquisition (b.mu → ba.mu) is
// safe because no code path holds ba.mu while taking b.mu.
func (b *Batcher) takeBatch(key graph.Fingerprint, strong uint64) *batch {
	ba := b.free
	if ba == nil {
		ba = &batch{}
	} else {
		b.free = ba.next
		ba.next = nil
	}
	// Arm under ba.mu: a stale joiner from a previous generation still
	// holding this pointer must observe either sealed==true (and retry) or
	// the new key — never a torn mix.
	ba.mu.Lock()
	ba.key = key
	ba.strong = strong
	ba.sealed = false
	ba.mu.Unlock()
	return ba
}

// lead runs the batch on the pool and fans the outcome out. The leader's
// own result is copied from the shared run target before the record is
// recycled, so the caller owns it outright.
func (b *Batcher) lead(ctx context.Context, g *Graph, ba *batch, res *Result) (*Result, error, bool) {
	completed := false
	defer func() {
		if !completed {
			// The engine run panicked. Seal the batch so followers get an
			// error instead of waiting forever, then let the panic continue
			// through the leader — the unbatched behavior for the caller
			// whose goroutine drove the engine. The record is not recycled:
			// after an engine panic its shared Result is suspect.
			b.seal(ba, errDetectPanicked)
		}
	}()
	faults.Maybe(faults.BatchLead)
	runRes, runErr := b.pool.DetectInto(ctx, g, ba.shared)
	completed = true
	if runErr == nil {
		ba.shared = runRes
	}
	b.seal(ba, runErr)
	if runErr != nil {
		// The leader's own context failed the run; its followers retry under
		// their own contexts via the cancellation error fanned out by seal.
		b.recycle(ba)
		return nil, runErr, false
	}
	out := core.CopyResultInto(res, ba.shared)
	b.recycle(ba)
	return out, nil, false
}

// seal removes ba from the inflight table (no more joiners) and delivers
// the outcome to every follower that has not withdrawn. The O(membership)
// copies run OUTSIDE both mutexes — sealing only holds ba.mu long enough
// to flip the flag, so joins of other generations and cancellations are
// never blocked behind fan-out copy work. Per-follower claim arbitration
// (see follower) keeps the copies race-free against cancellation.
func (b *Batcher) seal(ba *batch, runErr error) {
	b.mu.Lock()
	if b.inflight[ba.key] == ba {
		delete(b.inflight, ba.key)
	}
	b.mu.Unlock()
	ba.mu.Lock()
	ba.sealed = true
	followers := ba.followers // frozen: no joins after sealed
	ba.mu.Unlock()
	for _, f := range followers {
		if !f.state.CompareAndSwap(followerWaiting, followerClaimed) {
			continue // withdrew first; its res must not be touched
		}
		if runErr != nil {
			f.err = runErr
		} else {
			f.out = core.CopyResultInto(f.res, ba.shared)
		}
		f.ready <- struct{}{}
	}
}

// recycle returns a sealed batch record (and its pooled shared Result) to
// the free list. sealed stays true while free-listed, so stale joiners
// retry rather than attach to a dormant record.
func (b *Batcher) recycle(ba *batch) {
	ba.mu.Lock()
	for i := range ba.followers {
		ba.followers[i] = nil
	}
	ba.followers = ba.followers[:0]
	ba.mu.Unlock()
	b.mu.Lock()
	ba.next = b.free
	b.free = ba
	b.mu.Unlock()
}

// follow joins an in-flight batch and waits for its outcome or ctx.
func (b *Batcher) follow(ctx context.Context, g *Graph, ba *batch, key graph.Fingerprint, strong uint64, res *Result) (*Result, error, bool) {
	f := &follower{ready: make(chan struct{}, 1), res: res}
	ba.mu.Lock()
	if ba.sealed || ba.key != key {
		// Sealed (or already recycled for another graph) between the table
		// lookup and the join — re-resolve.
		ba.mu.Unlock()
		return nil, nil, true
	}
	if ba.strong != strong {
		// Sampled-fingerprint collision: this graph matches the leader's on
		// every sampled arc but not in full content. Joining would serve it
		// the leader's result for a DIFFERENT graph, so divert to a private
		// uncoalesced run instead — correctness over the batching win.
		ba.mu.Unlock()
		b.diverted.Add(1)
		out, err := b.pool.DetectInto(ctx, g, res)
		return out, err, false
	}
	ba.followers = append(ba.followers, f)
	ba.mu.Unlock()
	b.joins.Add(1)
	select {
	case <-f.ready:
		if f.err == nil {
			// Batched counts requests actually SERVED by a shared run; a
			// follower whose leader dies retries and is counted by whatever
			// path finally serves it, so Batched+Led sums to completions.
			b.batched.Add(1)
			return f.out, nil, false
		}
		if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
			// The LEADER was canceled, not this follower. Retry under our
			// own (still live, checked by the retry loop) context.
			return nil, nil, true
		}
		return nil, f.err, false
	case <-ctx.Done():
		if !f.state.CompareAndSwap(followerWaiting, followerCanceled) {
			// The sealer claimed us concurrently and is (or will be)
			// writing res; wait out that single delivery — bounded by one
			// copy, unlike the fan-out as a whole — so res is quiescent by
			// the time the caller sees the cancellation return.
			<-f.ready
		}
		b.canceled.Add(1)
		return nil, ctx.Err(), false
	}
}
