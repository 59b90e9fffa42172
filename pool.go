package grappolo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"grappolo/internal/core"
	"grappolo/internal/faults"
	"grappolo/internal/par"
)

// Pool serves concurrent Detect calls from a bounded set of reusable
// engines — the serving shell for long-lived clustering services: one
// engine per in-flight request, engines recycled back to back so warm
// steady-state requests perform zero scratch allocations, and at most Size
// engines (and Size concurrent detections) ever exist. Additional callers
// queue until an engine frees up, keeping memory and CPU bounded under
// bursts.
//
// Admission is FIFO-fair: engine permits are granted in strict arrival
// order (no barging), so under overload no request starves behind
// later-arriving traffic, and a request canceled while queued passes its
// turn to the next in line without losing a permit.
//
// Engines are handed out by size class: a request is served by the idle
// engine with the smallest high-water vertex count that already fits the
// graph, so small requests do not inflate every engine to the largest graph
// the pool has ever seen, and a same-shaped request hits an engine whose
// scratch needs no growth at all. Results are bit-identical to a fresh
// one-shot detection with the same configuration regardless of which engine
// serves the call or in what order requests land.
//
// A Pool is safe for concurrent use by multiple goroutines. Requests that
// are duplicates of each other still run once per request; to coalesce
// concurrent detections on the SAME graph into one engine run, put a
// Batcher in front of the pool.
type Pool struct {
	opts core.Options
	sem  *par.FairSem // one permit per engine; Cap() == Size()

	led      atomic.Int64 // engine runs started
	canceled atomic.Int64 // requests that returned ctx.Err()
	faulted  atomic.Int64 // engines quarantined after a panicking run

	mu   sync.Mutex
	idle []*pooledEngine
}

// PoolStats are cumulative serving counters, readable at any time from any
// goroutine. Pool.Stats fills the admission-side counters; Batcher.Stats
// additionally fills Batched (a Pool on its own never coalesces).
type PoolStats struct {
	// Led counts engine runs started on behalf of requests. Through a
	// Batcher this is the number of batch leaders — the acceptance metric
	// for coalescing (N duplicate requests, 1 run).
	Led int64
	// Batched counts requests served by joining an in-flight identical
	// run instead of starting their own (always 0 for a bare Pool).
	Batched int64
	// Waited counts requests that found no free engine and had to queue —
	// the overload-pressure signal.
	Waited int64
	// Canceled counts requests that returned early with their context's
	// error, whether canceled while queued, while following a batch, or
	// mid-run.
	Canceled int64
	// Faulted counts engines quarantined because their run panicked: a
	// panicking engine's scratch is suspect, so it is dropped instead of
	// recycled and its slot lazily re-creates a fresh engine. A nonzero
	// Faulted under production traffic means engine bugs (or injected
	// faults) are being absorbed by the serving layer.
	Faulted int64
}

// add accumulates o's counters into s.
func (s *PoolStats) add(o PoolStats) {
	s.Led += o.Led
	s.Batched += o.Batched
	s.Waited += o.Waited
	s.Canceled += o.Canceled
	s.Faulted += o.Faulted
}

// pooledEngine pairs an engine with the largest graph shape it has served,
// the size class used to match idle engines to requests.
type pooledEngine struct {
	eng  *core.Engine
	maxN int
}

// NewPool validates opts (exactly like New) and returns a Pool of at most
// size engines. size <= 0 selects GOMAXPROCS. Engines are created lazily on
// demand, so an oversized pool costs nothing until the concurrency actually
// materializes.
func NewPool(size int, opts ...Option) (*Pool, error) {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return newPoolCore(size, o), nil
}

// newPoolCore builds a pool directly over pre-validated internal options —
// the constructor behind NewPool and the Guard's degraded engine set.
func newPoolCore(size int, o core.Options) *Pool {
	return &Pool{
		opts: o,
		sem:  par.NewFairSem(size),
		idle: make([]*pooledEngine, 0, size),
	}
}

// Size returns the maximum number of engines (and concurrent detections).
func (p *Pool) Size() int { return p.sem.Cap() }

// Stats returns a snapshot of the pool's cumulative serving counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Led:      p.led.Load(),
		Waited:   p.sem.Waited(),
		Canceled: p.canceled.Load(),
		Faulted:  p.faulted.Load(),
	}
}

// A Pool is the seam's base case: its own engines and counters.
func (p *Pool) enginePool() *Pool          { return p }
func (p *Pool) engineStats() PoolStats     { return p.Stats() }
func (p *Pool) degradedTier(dp *Pool) tier { return dp }

// Detect acquires an engine (queuing FIFO behind earlier arrivals until one
// is available or ctx is done), runs detection on g, and returns a fresh
// Result independent of the pool. See Detector.Detect for the cancellation
// contract.
func (p *Pool) Detect(ctx context.Context, g *Graph) (*Result, error) {
	return p.DetectInto(ctx, g, nil)
}

// DetectInto is Detect recycling a caller-provided Result (see
// Detector.DetectInto): a serving loop that passes its previous Result back
// in makes warm same-shape requests on a Workers(1) pool allocate nothing
// at all. A nil res allocates a fresh Result.
func (p *Pool) DetectInto(ctx context.Context, g *Graph, res *Result) (*Result, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if ctx == nil {
		ctx = context.Background()
	}
	pe, err := p.checkout(ctx, g.N())
	if err != nil {
		return nil, err
	}
	// Check-in runs on every exit, including a panicking run (an engine bug
	// surfaced to a server that recovers per request): a run that did not
	// complete is quarantined, and the permit is always released, or Size
	// panics would shrink the pool into a permanent deadlock.
	completed, grown := false, 0
	defer func() { p.checkin(pe, completed, grown) }()
	faults.Maybe(faults.PoolServe)
	res, err = pe.eng.RunIntoCtx(ctx, g, res)
	completed = true
	// Only a completed run has demonstrably grown the engine's scratch to
	// this shape; a canceled run may have bailed before touching it, and
	// counting it would misclassify a cold engine as the warmest fit.
	if err == nil {
		grown = g.N()
	} else if !errors.Is(err, ErrBadEdgeWeight) {
		p.canceled.Add(1)
	}
	return res, err
}

// checkout is the one engine checkout path — Pool requests and Sharded's
// per-shard runs alike: it queues FIFO-fair for a permit, then takes the
// best-fitting engine for an n-vertex run and counts the run as led. Every
// successful checkout must be paired with exactly one checkin.
func (p *Pool) checkout(ctx context.Context, n int) (*pooledEngine, error) {
	if err := p.sem.Acquire(ctx); err != nil {
		p.canceled.Add(1)
		return nil, err
	}
	pe := p.take(n)
	p.led.Add(1)
	return pe, nil
}

// checkin ends a checkout. A run that did not complete normally (ok false)
// may have left the engine's scratch in an arbitrary state, so the engine
// is quarantined — DROPPED, never recycled; the released permit lazily
// re-creates a fresh engine on the next take. A recycled engine's size
// class is raised to grown, the vertex count its scratch has demonstrably
// reached (0 for none), before it becomes visible in the idle list. The
// engine's fate is decided while its permit is still held.
func (p *Pool) checkin(pe *pooledEngine, ok bool, grown int) {
	if ok {
		if grown > pe.maxN {
			pe.maxN = grown
		}
		p.put(pe)
	} else {
		p.faulted.Add(1)
	}
	p.sem.Release()
}

// take pops the best-fitting idle engine for an n-vertex request: the
// smallest engine that already fits (no scratch growth), else the largest
// (least growth), else — while fewer than Size engines exist, guaranteed by
// the permit held by the caller — a brand-new engine.
func (p *Pool) take(n int) *pooledEngine {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := -1
	for i, pe := range p.idle {
		if pe.maxN >= n && (best < 0 || pe.maxN < p.idle[best].maxN) {
			best = i
		}
	}
	if best < 0 {
		for i, pe := range p.idle {
			if best < 0 || pe.maxN > p.idle[best].maxN {
				best = i
			}
		}
	}
	if best < 0 {
		return &pooledEngine{eng: core.NewEngine(p.opts)}
	}
	last := len(p.idle) - 1
	pe := p.idle[best]
	p.idle[best] = p.idle[last]
	p.idle[last] = nil
	p.idle = p.idle[:last]
	return pe
}

// put returns an engine to the idle list. The append never allocates:
// len(idle) is bounded by the engine count, which the permits bound by
// Size, the slice's initial capacity.
func (p *Pool) put(pe *pooledEngine) {
	p.mu.Lock()
	p.idle = append(p.idle, pe)
	p.mu.Unlock()
}

// String describes the pool for logs.
func (p *Pool) String() string {
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	return fmt.Sprintf("grappolo.Pool(size=%d, idle=%d)", p.Size(), idle)
}
