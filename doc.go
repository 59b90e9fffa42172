// Package grappolo is a Go reproduction of "Parallel heuristics for
// scalable community detection" (Lu, Halappanavar, Kalyanaraman — IPDPSW
// 2014 / Parallel Computing 47, 2015): the Grappolo parallel Louvain
// community-detection system, packaged as a reusable library.
//
// # Quickstart
//
// Build a graph, create a Detector with functional options, detect:
//
//	b := grappolo.NewBuilder(34)
//	for _, e := range edges {
//		b.AddEdge(e[0], e[1], 1)
//	}
//	g := b.Build(0) // 0 workers = all CPUs
//
//	det, err := grappolo.New(
//		grappolo.Workers(8),
//		grappolo.VertexFollowing(),
//		grappolo.Coloring(grappolo.Distance1),
//		grappolo.Balance(grappolo.BalanceAuto),
//	)
//	if err != nil { ... }
//	res, err := det.Detect(ctx, g)
//	// res.Membership, res.NumCommunities, res.Modularity, res.Phases
//
// New validates the whole configuration up front: invalid values and
// invalid combinations (negative worker counts, CPM without a gamma, CPM
// with vertex following, Async with coloring) are errors, never silent
// corrections. No options at all is the paper's baseline.
//
// # Lifecycle: New → Detect → Pool
//
// A Detector owns one reusable engine: every Detect recycles all pipeline
// scratch, so back-to-back detections on same-shaped graphs allocate
// nothing beyond the Result — and DetectInto recycles that too. A Detector
// serves one call at a time; for concurrent traffic, a Pool manages a
// bounded set of engines and hands each request the idle engine whose
// size class best fits the input graph:
//
//	pool, err := grappolo.NewPool(runtime.GOMAXPROCS(0), grappolo.Workers(1))
//	...
//	res, err := pool.Detect(ctx, g) // safe from any number of goroutines
//
// Detect honors context cancellation cooperatively: the engine polls at
// level-loop and phase-sweep boundaries and sweeps observe a latched flag
// once per chunk, so cancellation lands within one chunk of sweep work —
// or after the currently running preprocessing step (vertex following,
// coloring, rebuild) completes — while the per-vertex hot loops stay
// branch-free.
//
// # Request batching: Pool vs Batcher
//
// A Pool bounds concurrency and reuses engines, but every request runs
// privately: ten dashboards asking about the same graph cost ten engine
// runs. A Batcher in front of the pool coalesces them — concurrent Detect
// calls whose graph is identical share ONE engine run, fanned back out as
// independent Result copies:
//
//	bat := grappolo.NewBatcher(pool)
//	res, err := bat.Detect(ctx, g) // duplicates coalesce; result is private
//
// When coalescing applies: requests are grouped by a structural graph
// fingerprint (exact vertex/arc counts and weight sum plus a sampled CSR
// content hash, memoized on the Graph) while they overlap in flight; a
// request arriving after the shared run sealed starts a new batch. All
// requests through one Batcher share its pool's options, so only graph
// identity varies. The sampled fingerprint is only the O(1) first-pass
// filter: before a request shares a run, its graph's exact full-content
// hash (Graph.StrongHash, computed once per immutable graph and memoized)
// must match the batch leader's. A sampled-hash collision therefore costs
// the batching win — the colliding request runs privately on the pool —
// never correctness: no request is ever served a result computed for a
// different graph.
//
// Fairness and cancellation: pool admission is FIFO (a fair semaphore — no
// barging, so no request starves behind later arrivals), batch leaders
// inherit that order, and followers piggyback without consuming permits. A
// follower canceled while waiting returns its own ctx.Err() immediately; a
// canceled queued request passes its turn on without losing a permit; and
// a canceled batch LEADER never poisons its followers — they transparently
// retry and one becomes the new leader. PoolStats (Pool.Stats /
// Batcher.Stats) counts runs Led, requests Batched, Waited and Canceled;
// under duplicate load Batched/Led is the coalescing win. Warm same-shape
// batched DetectInto stays zero-alloc on the leader path and O(1) per
// follower (pinned by TestBatcherWarmZeroAllocs; BenchmarkBatcherDetect
// measures batched vs unbatched duplicate load).
//
// # Serving robustly: deadlines, shedding, degraded mode
//
// A Pool (or Batcher) bounds concurrency but not queueing: under sustained
// overload its FIFO admission queue grows without limit, every request
// eventually runs at full quality, and an engine-run panic unwinds into
// whichever caller's goroutine drove the engine. Guard is the resilience
// tier that turns the stack into something a production service can sit
// behind:
//
//	gd, err := grappolo.NewGuard(bat,
//		grappolo.MaxQueueDepth(32),               // shed past this backlog
//		grappolo.MaxQueueWait(50*time.Millisecond), // shed slow-queue waiters
//		grappolo.DetectDeadline(2*time.Second),   // default per-request budget
//		grappolo.DegradeAtDepth(8),               // fast profile under pressure
//	)
//	...
//	res, err := gd.Detect(ctx, g)
//	switch {
//	case errors.Is(err, grappolo.ErrOverloaded): // shed: retry later / 503
//	case errors.Is(err, grappolo.ErrEngineFault): // engine panic, recovered
//	case err != nil:                             // ctx error as usual
//	default:
//		_ = res.Degraded // true iff served by the degraded profile
//	}
//
// Bounded admission: a request that would queue deeper than MaxQueueDepth,
// or that has queued longer than MaxQueueWait, fails fast with an error
// matching ErrOverloaded — typed back-pressure the caller can convert to a
// retry-later response. The bound is enforced atomically at the admission
// queue, admitted requests keep their FIFO order, and a caller's own
// context failing while queued is reported as that context's error, never
// disguised as overload. Requests with no deadline of their own receive
// DetectDeadline as a default budget (a caller-supplied deadline is always
// respected as-is), enforced by the engine's chunk-granular cooperative
// cancellation.
//
// Graceful degradation: past DegradeAtDepth queued waiters, requests are
// served by a SECOND size-classed engine set running a cheaper
// pre-validated profile — by default the paper's own quality/speed knobs
// tightened to at most 2 phases, 8 iterations per phase, and coarser gain
// thresholds (5e-2 colored, 1e-3 final); DegradeProfile overrides that.
// Degraded results are real clusterings of the full graph, bit-identical
// to a one-shot detection under the degraded profile, and marked with
// Result.Degraded so callers can label cached entries. When the queue
// drains, full-quality serving resumes by itself. Degradation is decided
// at admission time from queue depth, so a burst degrades only the
// requests that actually queued behind it. Degraded requests bypass any
// Cache; when a Batcher sits beneath the Guard (directly or under a Cache),
// degraded duplicates coalesce too.
//
// Fault isolation: an engine run that panics is quarantined twice over —
// the Pool discards the panicked engine instead of recycling it
// (PoolStats.Faulted counts these; the freed slot lazily builds a fresh
// engine) and releases its permit, a Batcher seals the batch so followers
// get an error matching ErrEngineFault instead of waiting forever, and the
// Guard converts the propagating panic into an *EngineFaultError carrying
// the panic value. A nil graph is likewise refused up front with
// ErrNilGraph by every serving layer. GuardStats extends PoolStats with
// Shed, Degraded and Recovered counts; a warm, non-degraded Guard request
// whose context already has a deadline allocates nothing (pinned by
// TestGuardWarmZeroAllocs), and the whole stack is soaked under seeded
// fault injection — panics, latency, forced cancellations — by the
// faultinject-tagged chaos tests.
//
// # Scaling out: sharded detection with ghost-label exchange
//
// The serving tiers above scale REQUESTS; Sharded scales the GRAPH. It
// partitions the input into shards (block ranges, arc-balanced ranges, or
// whole connected components), extracts one subgraph per shard in which
// every external neighbor appears as a frozen GHOST vertex — cut edges are
// kept as local–ghost halo edges, not dropped — and runs synchronized
// rounds of local-move sweeps, one engine per shard checked out of the
// wrapped Pool. Between rounds, shards exchange boundary community labels
// at a barrier: each shard re-seeds from the latest global labels with its
// ghosts pinned to their owners' assignments, so a boundary vertex can join
// a community that lives on another shard. A final master merge coarsens
// the FULL graph by the exchanged labels (cut edges now aggregated into
// real meta-edges) and re-clusters the coarse graph with a complete engine
// run:
//
//	sh, err := grappolo.NewSharded(pool,
//		grappolo.WithShards(8),
//		grappolo.WithExchangeRounds(2),
//		grappolo.WithPartition(grappolo.PartitionArcs),
//	)
//	...
//	res, err := sh.Detect(ctx, g) // same Detecter contract as every tier
//
// This is the repair of the distributed-memory contrast the paper draws in
// §7: the partition-and-merge scheme it cites (its ref. [25], emulated in
// internal/distributed) DISCARDS cut edges during the local phase and loses
// quality on partition-adversarial inputs. Halo edges plus label exchange
// recover that quality — the regression tests pin sharded modularity within
// 2% of the shared-memory Detector on suite graphs with scrambled vertex
// ids (and strictly above the drop-cut-edges emulation) — while each shard
// only ever materializes its own subgraph plus a one-vertex-deep halo.
// Sharded implements Detecter, so it wraps in a Guard like any backend;
// engine checkouts queue FIFO-fair through the pool, bounding memory under
// concurrent sharded traffic. Results are deterministic for a fixed graph
// and configuration at any worker count.
//
// # Serving from cache: repeats and near-repeats across time
//
// The Batcher coalesces duplicates that overlap IN FLIGHT; Cache extends
// the same economics across time. It fronts a Pool, Batcher or Sharded
// backend with a TTL + LRU result cache keyed by the graph's exact content
// and the backend's engine options:
//
//	c, err := grappolo.NewCache(bat,
//		grappolo.CacheTTL(time.Minute),     // serve an entry at most this long
//		grappolo.CacheBytes(1<<30),         // estimated-resident-bytes budget
//		grappolo.DeltaEdits(64),            // route small edits incrementally
//	)
//	...
//	res, err := c.Detect(ctx, g) // an exact repeat runs NO engine at all
//
// An exact repeat — a dashboard refresh, a retry, another tenant uploading
// the same public dataset — is served bit-identical to the run that
// populated the entry, deep-copied out so the caller owns it, with zero
// engine runs and (into a recycled Result) zero allocations (pinned by
// TestCacheHitZeroAllocs; BenchmarkCacheDetect measures the cold/hit/delta
// tiers). Lookups use the same sampled fingerprint as the Batcher but every
// hit and every admission is verified against the exact Graph.StrongHash,
// so a sampled collision degrades to an uncached run (CacheStats.Rejected),
// never to serving another graph's membership.
//
// With DeltaEdits(k), a miss within k edge INSERTIONS (including weight
// increases) of a cached graph skips the cold run too: the CSR diff is
// replayed onto an incremental maintainer seeded from the cached
// membership — the streaming tier applied to re-uploads — and the result is
// marked Result.Incremental: a valid clustering of the requested graph
// whose quality tracks incremental Louvain (re-anchored per
// DeltaRefreshFraction) rather than matching a cold run bit-for-bit.
// Deletions and rewires always fall through to the backend. A Cache
// composes under a Guard (NewGuard accepts it as a backend), is safe for
// concurrent use, and exposes Invalidate/InvalidateAll for callers whose
// graphs stop describing reality — see Stream.OnApply below.
//
// Streaming workloads use NewStream, which maintains communities under
// live edge insertions with batched incremental updates and pooled full
// re-detections. AddEdge rejects weights that are not positive finite
// numbers with ErrBadEdgeWeight (a NaN or Inf would corrupt the live
// modularity bookkeeping irreversibly); NewStream, and every detection
// entry point, likewise rejects a graph whose total weight is NaN or
// infinite — which a Builder or FromEdges graph can carry, since they
// store such weights as given — with ErrBadEdgeWeight instead of iterating
// without converging. FlushCtx surfaces cancellation of the full
// re-detections a flush can escalate to (the overlay stays consistent and
// the refresh is retried on the next flush), and OnApply registers a
// post-batch hook — the natural place to call Cache.Invalidate for the
// stream's seed graph. Synthetic inputs reproducing the paper's
// 11-graph suite live in grappolo/generate; partition-agreement measures
// (Table 3) in grappolo/quality.
//
// The algorithms, experiment harness and serial baselines live under
// internal/ (internal/core, internal/graph, internal/coloring,
// internal/par, internal/seq, internal/harness, ...); the root package and
// its public subpackages are the supported API.
//
// # Flat-accumulator hot path
//
// The paper identifies the per-vertex neighbor-community map and the graph
// rebuild as the dominant phase costs (§5.5, Figs. 8–9). Everywhere the
// original code (and this reproduction's first port) used a hash map on the
// hot path — decide in internal/core, row aggregation in the rebuild, and
// the serial baselines in internal/seq — the engine now uses
// par.SparseAccum: a flat value array indexed directly by community id, a
// dense list of touched keys in first-touch order, and a generation stamp
// per slot so Reset is O(1) and no clearing ever touches untouched slots.
// Accumulators are pooled per worker (par.ForChunkCtx/ForChunkPrefixCtx
// expose the worker index) and reused across sweeps, making the
// steady-state decide loop allocation-free; sweep chunks are balanced by
// arc count over the CSR offsets rather than vertex count, so hub-heavy
// skewed inputs cannot serialize a sweep. First-touch key order equals the
// old map-insertion order, keeping all deterministic paths bit-identical.
//
// # Reusable Engine and scratch ownership
//
// core.Run is a thin wrapper over core.Engine, the reusable pipeline: an
// Engine owns every mutable scratch buffer the run needs — the phase working
// set and per-worker accumulators (shared by the decide loop and the
// rebuild's row aggregation, which never overlap), the rebuild
// counting-sort buffers and per-worker row-count markers, the renumbering
// and CPM node-size buffers, the coloring scratch (worklists, flat
// markers, set storage via coloring.Scratch), and one pooled coarse-graph
// slot per rebuild depth (graph.FromCSRInto recycles the CSR arrays and
// Graph header in place).
// Everything is sized by high-water mark and recycled across phases and
// across Run calls, so the second run on a same-shaped graph performs zero
// scratch allocations; Engine.RunInto additionally recycles the Result,
// so a warm re-run at Workers: 1 allocates nothing at all (pinned by
// TestEngineRunSteadyStateZeroAllocs). With more workers each parallel
// loop still spawns its goroutines, which allocates; BenchmarkEngineReuse
// reports those allocations at the machine's CPU count.
//
// Ownership rules: hold ONE Engine per sequence of same-configuration runs
// (dynamic overlays re-detecting per flush, harness repeat sweeps, services
// answering clustering requests back to back) and let it grow to the largest
// graph it serves; re-create the engine only to change Options or to release
// the pooled memory. An Engine is not safe for concurrent Run calls — give
// each worker goroutine its own. Results returned by Run are independent of
// the engine; results passed back into RunInto are overwritten.
//
// The zero-alloc guarantee leans on two conventions enforced throughout the
// hot paths: loop bodies are package-level captureless functions receiving
// their state as an explicit context argument (par.ForChunkCtx and the
// other par.*Ctx loops, all dispatched by one fork-join in internal/par —
// a capturing closure heap-allocates at every call site because the body
// parameter escapes into the worker goroutines), and contexts larger than
// 128 bytes are passed by pointer to pooled storage (Go captures bigger
// values by reference, which would heap-move them per call).
//
// # Memory layout: split vs interleaved arcs
//
// A graph always stores its CSR as two parallel streams — int32 neighbor
// ids and float64 weights. LayoutInterleaved additionally packs them into
// one 16-byte-stride arc array ({nbr, weight} records), selected per graph
// with FromEdgesLayout or SetGraphLayout and per detection with the
// ArcLayout option (ArcLayout picks the layout of the COARSE graphs the
// engine builds; LayoutAuto, the default, inherits the input's layout).
// The layout is purely a memory choice: both orders enumerate identical
// arcs, so results are bit-identical under every combination — only
// runtimes differ.
//
// When to interleave: sweeps that scan vertices in sequential id order
// (the uncolored and async paths) read each row as one forward stream
// instead of two, cutting the active prefetch streams per worker in half;
// on large graphs that is worth ~15-30% of sweep time. The colored sweep
// visits vertices in scattered color-set order, where the packed 16-byte
// arcs fetch ~33% more cache lines per randomly-gathered row with no
// sequential-stream payoff — so the live (colored) decide kernel always
// reads the split streams, which remain present under every layout, and
// interleaving is simply neutral there. Decide kernels are monomorphic:
// the engine dispatches once per sweep to a specialization per
// (membership-atomicity, layout, objective) instead of branching or
// calling through closures per arc.
//
// On amd64 and arm64 the sweeps also issue software prefetch hints for the
// neighbor-community gather one vertex ahead (batched, 8 hints per call);
// graphs below ~256k vertices skip hinting since their working set is
// cache-resident. Building with -tags noasm swaps the hints for portable
// no-ops — results are identical, and CI runs the kernel packages both
// ways.
//
// # Arc-balanced coloring
//
// The paper blames uk-2002's poor speedup on skewed color-set sizes (943
// colors, set-size RSD 18.876, §6.2) and proposes balanced coloring as the
// remedy. coloring.Rebalance implements that repair as speculative parallel
// rounds (the same speculate-and-resolve pattern as the coloring itself)
// with flat generation-stamped neighbor-color marking, in two balance modes
// threaded through core.Options.ColorBalance and the -balance CLI flag:
// vertex mode evens per-set vertex counts, arc mode evens per-set total ARC
// counts — the metric the colored sweep's work is actually proportional to,
// so one arc-heavy straggler set cannot serialize a sweep that looks
// balanced by vertex count — and auto mode (BalanceAuto, -balance auto)
// measures the base coloring's ArcRSD each phase and applies the arc repair
// only when it exceeds Options.AutoBalanceArcRSD. When a phase's sets were
// arc-rebalanced the colored sweep consumes them directly: the per-set arc
// prefix sums and binary-search chunking are skipped because the sets are
// even by construction. The rebalancer honors the base coloring's distance
// (a distance-2 coloring is repaired against distance-2 neighborhoods),
// never increases the color count, is deterministic for any worker count,
// and its per-round load RSD is non-increasing. coloring.Stats and
// core.PhaseStats report both the vertex-count and arc-count RSDs
// (harness.ColorSkew / benchtables -colorskew tabulate them, along with the
// mode auto would pick).
//
// # Static analysis
//
// The conventions above are contracts, not habits, and the repo mechanizes
// them: internal/analysis is a small go/analysis-shaped suite of five
// repo-specific analyzers, driven by the cmd/grappolovet multichecker and
// run as a blocking CI step under every build-tag set CI compiles
// (default, faultinject, noasm). The analyzers: capturebody rejects
// capturing func literals (and bound method values) passed as bodies to
// the par.*Ctx helpers — the zero-alloc contract says those bodies must be
// package-level captureless functions; internalimport enforces the API
// boundary (examples/ and cmd/grappolo never import grappolo/internal/...);
// asmpair proves every assembly-declared function has a
// signature-identical Go fallback under complementary build constraints,
// so no tag combination yields a missing or duplicate symbol; typederr
// rejects ==/!= comparisons against error sentinels (use errors.Is) and
// fmt.Errorf calls that stringify an error with %v instead of wrapping
// with %w; hotalloc checks functions annotated with a //grappolo:hotpath
// directive for per-call allocation sources — map literals and inserts,
// appends not rooted in a parameter or receiver, fmt calls, interface
// boxing, and closure creation. Annotate a function hot only when a
// steady-state allocation test covers the path; the directive is a
// machine-checked claim, not documentation. Run the suite with
//
//	go run ./cmd/grappolovet ./...
//
// (flags: -tags, -run to select analyzers, -list). Each analyzer carries
// fixture tests under internal/analysis/testdata that fail if its checks
// are weakened.
//
// Executables: cmd/grappolo (CLI), cmd/graphgen (input generator),
// cmd/benchtables (regenerates every table and figure of the paper).
// Runnable examples are under examples/. The benchmarks in bench_test.go
// map one-to-one onto the paper's tables and figures; see DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded results.
package grappolo
