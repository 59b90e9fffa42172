package grappolo

import (
	"context"
	"fmt"
	"time"

	"grappolo/internal/core"
	"grappolo/internal/dynamic"
	"grappolo/internal/rescache"
)

// Cache serves repeated detections across TIME the way the Batcher serves
// them across concurrent callers: a TTL + LRU result cache keyed by the
// graph's content identity and the backend's exact engine options, composed
// as a Detecter in front of any engine-backed tier — a Pool, Batcher,
// Sharded or another Cache — and behind a Guard. Back-to-back identical
// uploads — dashboard refreshes, retries, many tenants asking about the
// same public dataset — are served from the cache with ZERO engine runs; a
// warm hit into a recycled Result performs zero allocations, the same gate
// discipline as the rest of the serving stack.
//
// Correctness: lookups are keyed by the cheap sampled graph.Fingerprint,
// but no result is ever served (or displaced) on that evidence alone —
// every match is confirmed against the graph's exact full-content
// StrongHash, computed once per immutable Graph and memoized on it. A
// sampled-hash collision therefore degrades to an uncached detection
// (counted in CacheStats.Rejected), never to serving another graph's
// membership. Cached Results are deep-copied out on every hit, so callers
// receive the same ownership semantics as an unbatched call, bit-identical
// to the run that populated the entry.
//
// Delta tier (DeltaEdits): a miss whose fingerprint shape (vertex count,
// arc count, total weight) is within the configured edit budget of a cached
// entry is diffed against that entry's retained graph with one linear CSR
// merge-walk. If the request is reachable by at most DeltaEdits edge
// insertions (including weight increases), the delta is routed onto an
// incremental dynamic.Maintainer seeded from the cached membership — the
// paper's real-time future-work item as a serving-tier fast path — instead
// of a cold engine run. Such results are marked Result.Incremental: a valid
// clustering of the request's graph whose quality tracks incremental
// Louvain (re-anchored by full re-detections per DeltaRefreshFraction)
// rather than matching a cold run bit-for-bit. Deletions and rewires never
// route; they fall through to the backend.
//
// Memory: the cache retains each admitted graph and result (and any
// maintainer) and evicts least-recently-used entries once the estimated
// resident bytes exceed CacheBytes. A Cache is safe for concurrent use.
type Cache struct {
	backend tier
	store   *rescache.Store
	opts    core.Options
}

// CacheStats are cumulative serving counters plus a residency snapshot.
type CacheStats struct {
	// Hits counts requests served straight from the cache (zero engine
	// runs, bit-identical result); Misses counts the rest.
	Hits, Misses int64
	// DeltaRouted counts misses served by the incremental delta tier
	// instead of a cold run.
	DeltaRouted int64
	// Evictions counts entries dropped by the byte budget; Expired counts
	// TTL drops.
	Evictions, Expired int64
	// Rejected counts sampled-fingerprint matches refused by the exact
	// strong-hash check — the cross-time collisions that are served
	// uncached instead of wrong.
	Rejected int64
	// Entries and Bytes snapshot current residency (Bytes is the eviction
	// estimate, not an allocator audit).
	Entries int
	Bytes   int64
}

// cacheConfig accumulates CacheOption applications.
type cacheConfig struct {
	ttl      time.Duration
	maxBytes int64
	delta    int
	refresh  float64
}

// CacheOption configures a Cache.
type CacheOption func(*cacheConfig) error

// CacheTTL bounds how long an entry may be served after admission (default:
// until evicted). d must be positive.
func CacheTTL(d time.Duration) CacheOption {
	return func(c *cacheConfig) error {
		if d <= 0 {
			return fmt.Errorf("grappolo: CacheTTL must be positive, got %v", d)
		}
		c.ttl = d
		return nil
	}
}

// CacheBytes bounds the cache's estimated resident bytes (graphs + results
// + maintainers); least-recently-used entries are evicted past it. The
// default is 256 MiB. n must be positive.
func CacheBytes(n int64) CacheOption {
	return func(c *cacheConfig) error {
		if n <= 0 {
			return fmt.Errorf("grappolo: CacheBytes must be positive, got %d", n)
		}
		c.maxBytes = n
		return nil
	}
}

// DeltaEdits enables the delta tier with an edge-edit budget: a miss within
// k edge insertions of a cached graph is served incrementally instead of
// cold. 0 (the default) disables delta routing. Requires a modularity,
// non-Async backend configuration — the incremental overlay maintains
// standard modularity.
func DeltaEdits(k int) CacheOption {
	return func(c *cacheConfig) error {
		if k < 0 {
			return fmt.Errorf("grappolo: negative DeltaEdits %d", k)
		}
		c.delta = k
		return nil
	}
}

// DeltaRefreshFraction sets the touched-vertex fraction at which a cached
// maintainer re-anchors quality with a full re-detection (default 0.25).
// Must be in (0, 1].
func DeltaRefreshFraction(f float64) CacheOption {
	return func(c *cacheConfig) error {
		if f <= 0 || f > 1 {
			return fmt.Errorf("grappolo: DeltaRefreshFraction must be in (0, 1], got %v", f)
		}
		c.refresh = f
		return nil
	}
}

// NewCache wraps backend — a *Pool, *Batcher, *Sharded or *Cache — in a
// result cache. All traffic for the backend should route through the Cache
// (a detection that bypasses it is simply never cached). Configuration
// errors are returned, never coerced.
func NewCache(backend Detecter, copts ...CacheOption) (*Cache, error) {
	b, ok := backend.(tier)
	if !ok {
		return nil, fmt.Errorf("grappolo: NewCache needs a *Pool, *Batcher, *Sharded or *Cache backend, got %T", backend)
	}
	pool := b.enginePool()
	c := cacheConfig{maxBytes: 256 << 20, refresh: 0.25}
	for _, o := range copts {
		if o == nil {
			return nil, fmt.Errorf("grappolo: nil CacheOption")
		}
		if err := o(&c); err != nil {
			return nil, err
		}
	}
	if c.delta > 0 {
		if pool.opts.Objective == core.ObjCPM {
			return nil, fmt.Errorf("grappolo: DeltaEdits maintains modularity; CPM backends cannot delta-route")
		}
		if pool.opts.Async {
			return nil, fmt.Errorf("grappolo: DeltaEdits requires deterministic full runs; Async backends cannot delta-route")
		}
	}
	store := rescache.New(rescache.Options{
		TTL:        c.ttl,
		MaxBytes:   c.maxBytes,
		DeltaEdges: c.delta,
		Dynamic: dynamic.Options{
			Workers:         pool.opts.Workers,
			RefreshFraction: c.refresh,
			Full:            pool.opts.Defaults(),
		},
	})
	return &Cache{backend: b, store: store, opts: pool.opts}, nil
}

// Pool returns the underlying engine pool (capacity, options) the cached
// backend serves from.
func (c *Cache) Pool() *Pool { return c.backend.enginePool() }

// A Cache is transparent to the engine side: its engine counters are its
// backend's, and the Guard's degraded set (which bypasses the cache)
// mirrors the backend's shape.
func (c *Cache) enginePool() *Pool          { return c.backend.enginePool() }
func (c *Cache) engineStats() PoolStats     { return c.backend.engineStats() }
func (c *Cache) degradedTier(dp *Pool) tier { return c.backend.degradedTier(dp) }

// Stats returns the cache's cumulative counters and residency snapshot.
func (c *Cache) Stats() CacheStats {
	s := c.store.Stats()
	return CacheStats{
		Hits: s.Hits, Misses: s.Misses, DeltaRouted: s.DeltaRouted,
		Evictions: s.Evictions, Expired: s.Expired, Rejected: s.Rejected,
		Entries: s.Entries, Bytes: s.Bytes,
	}
}

// Len returns the resident entry count.
func (c *Cache) Len() int { return c.store.Len() }

// Invalidate drops the cached entry for g's content, if resident — the hook
// streaming overlays use: once a NewStream seeded from g applies a batch,
// results detected for g no longer describe the live graph. Reports whether
// an entry was dropped.
func (c *Cache) Invalidate(g *Graph) bool {
	if g == nil {
		return false
	}
	return c.store.Remove(rescache.Key{FP: g.Fingerprint(), Opts: c.opts})
}

// InvalidateAll drops every entry and returns how many were resident.
func (c *Cache) InvalidateAll() int { return c.store.Clear() }

// Detect runs detection on g, serving from the cache when its exact content
// (and the backend's options) match a live entry, routing small edits
// incrementally when DeltaEdits is enabled, and falling through to the
// backend otherwise. The Result is always a fresh copy independent of the
// cache.
func (c *Cache) Detect(ctx context.Context, g *Graph) (*Result, error) {
	return c.DetectInto(ctx, g, nil)
}

// DetectInto is Detect recycling a caller-provided Result: a warm hit
// copies the cached result into res and performs zero allocations. A nil
// res allocates a fresh Result. Cancellation follows the backend's
// contract; an exact hit never blocks and never fails.
func (c *Cache) DetectInto(ctx context.Context, g *Graph, res *Result) (*Result, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if ctx == nil {
		ctx = context.Background()
	}
	key := rescache.Key{FP: g.Fingerprint(), Opts: c.opts}
	strong := g.StrongHash()
	if cached, ok := c.store.Get(key, strong); ok {
		return core.CopyResultInto(res, cached), nil
	}
	if out, handled, err := c.store.DeltaDetect(ctx, key, g, strong); handled {
		if err != nil {
			return nil, err
		}
		return core.CopyResultInto(res, out), nil
	}
	out, err := c.backend.DetectInto(ctx, g, res)
	if err != nil {
		return nil, err
	}
	c.store.Put(key, strong, g, core.CopyResultInto(nil, out), nil)
	return out, nil
}

// String describes the cache for logs.
func (c *Cache) String() string {
	s := c.store.Stats()
	return fmt.Sprintf("grappolo.Cache(entries=%d, bytes=%d, hits=%d, misses=%d, delta=%d)",
		s.Entries, s.Bytes, s.Hits, s.Misses, s.DeltaRouted)
}
