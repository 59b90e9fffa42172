package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"grappolo"
	igen "grappolo/internal/generate"
)

// serve-mix traffic shape.
const (
	zipfS        = 1.1  // popularity exponent over the catalogue
	deltaShare   = 0.15 // requests that add edges to their base graph
	maxDeltaEdge = 16   // such a request adds 1..maxDeltaEdge edges
	cacheBytes   = 32 << 20
	deltaEdits   = 32
	plainEvery   = 64 // sample every 64th plain result for the reference check
	incEvery     = 4  // and every 4th incremental one
	maxSamples   = 128
	reqPerSecCap = 2000 // schedule length per client per measured second
)

// catItem is one catalogue graph as the edge list a client uploads.
type catItem struct {
	n     int
	edges []grappolo.Edge
}

// request names a catalogue graph and the edges it adds, if any.
type request struct {
	item  int32
	extra []grappolo.Edge
}

type serveInput struct {
	cat   []catItem
	sched [][]request // one schedule per client; item 0 is the most popular
}

// stack is the serving path under test: Guard → Cache → Batcher → Pool.
type stack struct {
	guard *grappolo.Guard
	cache *grappolo.Cache
}

func newStack(workers int) (*stack, error) {
	pool, err := grappolo.NewPool(workers, detectOpts(1)...)
	if err != nil {
		return nil, err
	}
	c, err := grappolo.NewCache(grappolo.NewBatcher(pool), grappolo.CacheBytes(cacheBytes), grappolo.DeltaEdits(deltaEdits))
	if err != nil {
		return nil, err
	}
	g, err := grappolo.NewGuard(c)
	if err != nil {
		return nil, err
	}
	return &stack{guard: g, cache: c}, nil
}

// counters snapshots the tiers' public Stats.
type counters struct {
	g grappolo.GuardStats
	c grappolo.CacheStats
}

func (s *stack) counters() counters { return counters{s.guard.Stats(), s.cache.Stats()} }

func makeServeInput(cfg config) (serveInput, []byte, error) {
	var in serveInput
	h := newHasher()
	suite := igen.Suite()
	for s := 0; s < cfg.size.serveSeeds; s++ {
		for _, name := range suite {
			g, err := igen.Generate(name, igen.Small, subSeed(cfg.seed, uint64(100+len(in.cat))), cfg.workers)
			if err != nil {
				return in, nil, err
			}
			it := catItem{n: g.N(), edges: edgesOf(g)}
			h.add(int64(it.n))
			h.add(it.edges)
			in.cat = append(in.cat, it)
		}
	}
	// Popularity rank is catalogue order: the hottest graphs are one of
	// each suite input, so every seed serves the same mix of shapes.
	perClient := max(cfg.size.minRequests, int(cfg.seconds.Seconds()*reqPerSecCap)/cfg.workers)
	for c := 0; c < cfg.workers; c++ {
		rc := rand.New(rand.NewPCG(cfg.seed, uint64(3+c)))
		z := rand.NewZipf(rc, zipfS, 1, uint64(len(in.cat)-1))
		sched := make([]request, perClient)
		for i := range sched {
			rq := request{item: int32(z.Uint64())}
			if rc.Float64() < deltaShare {
				n := int32(in.cat[rq.item].n)
				k := 1 + rc.IntN(maxDeltaEdge)
				for len(rq.extra) < k {
					u, v := rc.Int32N(n), rc.Int32N(n)
					if u != v {
						rq.extra = append(rq.extra, grappolo.Edge{U: u, V: v, W: 1})
					}
				}
			}
			h.add(rq.item)
			h.add(rq.extra)
			sched[i] = rq
		}
		in.sched = append(in.sched, sched)
	}
	return in, h.sum(), nil
}

// edgesOf lists each undirected edge of g once (self-loops included).
func edgesOf(g *grappolo.Graph) []grappolo.Edge {
	var out []grappolo.Edge
	for u := 0; u < g.N(); u++ {
		nbr, w := g.Neighbors(u)
		for t, v := range nbr {
			if int(v) >= u {
				out = append(out, grappolo.Edge{U: int32(u), V: v, W: w[t]})
			}
		}
	}
	return out
}

// edges returns the request's upload: the base graph plus its additions.
func (in *serveInput) edges(rq request) (int, []grappolo.Edge) {
	it := in.cat[rq.item]
	if len(rq.extra) == 0 {
		return it.n, it.edges
	}
	e := make([]grappolo.Edge, 0, len(it.edges)+len(rq.extra))
	return it.n, append(append(e, it.edges...), rq.extra...)
}

// sample is a served result kept for the reference check.
type sample struct {
	rq          request
	membership  []int32
	k           int
	incremental bool
}

// clientOut is one client's record of a pass.
type clientOut struct {
	latency, build, incremental samples
	itemQ                       map[int32]float64 // Q served for each plain catalogue graph
	kept                        []sample
	attempted                   int
	fails                       []string
	tr                          *recorder
}

// servePass runs one closed-loop client per worker against st until d has
// passed and the clients together completed cfg.size.minRequests, and
// returns the clients' records and the pass's wall time.
func servePass(ctx context.Context, cfg config, in *serveInput, st *stack, d time.Duration, traced bool) ([]clientOut, time.Duration) {
	outs := make([]clientOut, cfg.workers)
	perClient := (cfg.size.minRequests + cfg.workers - 1) / cfg.workers
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range outs {
		outs[c].itemQ = make(map[int32]float64)
		if traced {
			outs[c].tr = newRecorder(start)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			serveClient(ctx, in, st, in.sched[c], int64(c)<<32, deadline, perClient, &outs[c])
		}(c)
	}
	wg.Wait()
	return outs, time.Since(start)
}

func serveClient(ctx context.Context, in *serveInput, st *stack, sched []request, idBase int64, deadline time.Time, minReqs int, out *clientOut) {
	tr := out.tr
	var plain, inc int
	for i, rq := range sched {
		if i >= minReqs && time.Now().After(deadline) {
			return
		}
		id := idBase + int64(i)
		root := tr.begin(id, "bench.request", -1)
		t0 := time.Now()
		n, edges := in.edges(rq)
		s := tr.begin(id, "graph.build", root)
		g := grappolo.FromEdges(n, edges, 1)
		tr.end(s)
		t1 := time.Now()
		s = tr.begin(id, "serving.stack", root)
		res, err := st.guard.Detect(ctx, g)
		tr.end(s)
		t2 := time.Now()
		tr.end(root)

		out.attempted++
		if err != nil {
			out.fails = append(out.fails, fmt.Sprintf("request %d: %v", id, err))
			continue
		}
		if msg := checkPartition(res.Membership, n, res.NumCommunities); msg != "" {
			out.fails = append(out.fails, fmt.Sprintf("request %d: %s", id, msg))
			continue
		}
		out.latency.add(t2.Sub(t0))
		out.build.add(t1.Sub(t0))
		if len(rq.extra) == 0 {
			out.itemQ[rq.item] = res.Modularity
		}
		keep := false
		if res.Incremental {
			out.incremental.add(t2.Sub(t1))
			keep = inc%incEvery == 0
			inc++
		} else {
			keep = plain%plainEvery == 0
			plain++
		}
		if keep && len(out.kept) < maxSamples {
			out.kept = append(out.kept, sample{rq: rq, membership: res.Membership, k: res.NumCommunities, incremental: res.Incremental})
		}
	}
}

// passStats merges the clients' records.
type passStats struct {
	latency, build, incremental samples
	itemQ                       map[int32]float64
	kept                        []sample
	ok                          int
	elapsed                     time.Duration
	spans                       []span
}

func mergeClients(rep *report, outs []clientOut, elapsed time.Duration) passStats {
	ps := passStats{elapsed: elapsed, itemQ: make(map[int32]float64)}
	var rs []*recorder
	for _, o := range outs {
		rep.attempted += o.attempted
		for _, f := range o.fails {
			rep.fail("%s", f)
		}
		ps.latency = append(ps.latency, o.latency...)
		ps.build = append(ps.build, o.build...)
		ps.incremental = append(ps.incremental, o.incremental...)
		for it, q := range o.itemQ {
			ps.itemQ[it] = q
		}
		ps.kept = append(ps.kept, o.kept...)
		ps.ok += len(o.latency)
		rs = append(rs, o.tr)
	}
	ps.spans = merge(rs)
	return ps
}

func (ps passStats) rps() float64 { return float64(ps.ok) / ps.elapsed.Seconds() }

// checkSamples re-detects each kept request's graph uncached on a
// one-worker Detector: plain results must match it bit for bit,
// incremental ones must be within 2% of its Q. The reference runs feed
// runs, when given, with what a cold miss costs.
func checkSamples(ctx context.Context, rep *report, in *serveInput, kept []sample, runs *coreRuns) error {
	ref, err := grappolo.New(detectOpts(1)...)
	if err != nil {
		return err
	}
	for _, s := range kept {
		n, edges := in.edges(s.rq)
		g := grappolo.FromEdges(n, edges, 1)
		t0 := time.Now()
		want, err := ref.Detect(ctx, g)
		if err != nil {
			return fmt.Errorf("reference detect: %w", err)
		}
		if runs != nil && !s.incremental {
			runs.add(time.Since(t0), want)
		}
		if s.incremental {
			q := grappolo.Modularity(g, s.membership, 1, 1)
			if q < 0.98*want.Modularity {
				rep.fail("incremental result Q %.6f below 98%% of the uncached run's %.6f", q, want.Modularity)
			}
			continue
		}
		if s.k != want.NumCommunities || !slices.Equal(s.membership, want.Membership) {
			rep.fail("served result differs from the uncached one-worker run (%d vs %d communities)", s.k, want.NumCommunities)
		}
	}
	return nil
}

func runServe(ctx context.Context, cfg config, rep *report) error {
	in, err := setupTimed(rep, func() (serveInput, []byte, error) { return makeServeInput(cfg) })
	if err != nil {
		return err
	}
	arcs := 0
	for _, it := range in.cat {
		arcs += 2 * len(it.edges)
	}
	rep.notef("serve-mix catalogue: %d graphs, %d arcs; %d clients", len(in.cat), arcs, cfg.workers)
	if cfg.traced {
		return traceServe(ctx, cfg, rep, &in)
	}

	st, err := newStack(cfg.workers)
	if err != nil {
		return err
	}
	c0 := st.counters()
	mem := startMemSampler()
	outs, elapsed := servePass(ctx, cfg, &in, st, cfg.seconds, false)
	rep.set("mem_peak_mb", mem.stopMB())
	c1 := st.counters()
	ps := mergeClients(rep, outs, elapsed)
	if ps.ok == 0 {
		return fmt.Errorf("serve-mix: no request completed")
	}
	lat := ps.latency.sorted()
	p50, _, _ := percentile(lat, 50)
	p99, beyond, ok := percentile(lat, 99)
	if !ok && cfg.size.minRequests >= minSamplesFor(99) {
		return fmt.Errorf("serve-mix: %d requests leave %d beyond p99, need %d", len(lat), beyond, minBeyond)
	}
	rep.set("op_p50_ms", p50/1e6)
	rep.set("op_tail_ms", p99/1e6)
	rep.set("throughput_per_s", ps.rps())
	// Each catalogue graph counts once, so the figure is the service's
	// quality over its catalogue, not over whichever graphs were hottest.
	var qs []float64
	for _, q := range ps.itemQ {
		qs = append(qs, q)
	}
	rep.set("modularity", mean(qs))
	rep.notef("serve_rps=%.1f req/s (%d requests in %.2f s)", ps.rps(), ps.ok, elapsed.Seconds())
	q := quartiles(lat)
	rep.notef("serve_p50_ms=%.4f ms (quartiles %.4f / %.4f ms)", p50/1e6, q[0]/1e6, q[2]/1e6)
	rep.notef("serve_p99_ms=%.4f ms (n=%d, %d beyond)", p99/1e6, len(lat), beyond)
	rep.notef("served Q mean=%.6f over %d distinct catalogue graphs", mean(qs), len(qs))
	rep.notef("%v", counterMix(c0, c1, len(lat)))
	return checkSamples(ctx, rep, &in, ps.kept, nil)
}

// mix is the tiers' counters differenced over a pass, per request.
type mix struct {
	hit, delta, cold, evictions, coalesced, waited, shed float64
	rejected                                             int64
}

func counterMix(c0, c1 counters, reqs int) mix {
	r := float64(reqs)
	delta := c1.c.DeltaRouted - c0.c.DeltaRouted
	return mix{
		hit:       float64(c1.c.Hits-c0.c.Hits) / r,
		delta:     float64(delta) / r,
		cold:      float64(c1.c.Misses-c0.c.Misses-delta) / r,
		evictions: float64(c1.c.Evictions-c0.c.Evictions) / r,
		rejected:  c1.c.Rejected - c0.c.Rejected,
		coalesced: float64(c1.g.Batched-c0.g.Batched) / r,
		waited:    float64(c1.g.Waited-c0.g.Waited) / r,
		shed:      float64(c1.g.Shed-c0.g.Shed) / r,
	}
}

func (m mix) String() string {
	return fmt.Sprintf("cache mix: hit %.3f, delta %.3f, cold %.3f; evictions/req %.3f; coalesced %.3f",
		m.hit, m.delta, m.cold, m.evictions, m.coalesced)
}

func (m mix) report(rep *report) {
	rep.set("cache.hit_share", m.hit)
	rep.set("cache.delta_share", m.delta)
	rep.set("cache.miss_share", m.cold)
	rep.set("cache.evictions_per_req", m.evictions)
	rep.set("cache.rejected", float64(m.rejected))
	rep.set("batcher.coalesced_share", m.coalesced)
	rep.set("pool.waited_share", m.waited)
	rep.set("guard.shed_share", m.shed)
}

// traceServe is the traced serve-mix run: an untraced and a traced pass
// on fresh stacks (their rate ratio is the tracing overhead), the tiers'
// counters over the traced pass, the reference runs as the cold-miss
// engine cost, and the tier ladder.
func traceServe(ctx context.Context, cfg config, rep *report, in *serveInput) error {
	half := cfg.seconds / 2
	st, err := newStack(cfg.workers)
	if err != nil {
		return err
	}
	outs, elapsed := servePass(ctx, cfg, in, st, half, false)
	plain := mergeClients(rep, outs, elapsed)

	if st, err = newStack(cfg.workers); err != nil {
		return err
	}
	clean()
	c0 := st.counters()
	outs, elapsed = servePass(ctx, cfg, in, st, half, true)
	c1 := st.counters()
	ps := mergeClients(rep, outs, elapsed)
	if plain.ok == 0 || ps.ok == 0 {
		return fmt.Errorf("serve-mix: no request completed")
	}
	rep.set("trace.overhead_frac", plain.rps()/ps.rps()-1)
	m := counterMix(c0, c1, ps.ok)
	m.report(rep)
	rep.notef("%v", m)
	build := ps.build.sorted()
	b50, _, _ := percentile(build, 50)
	b99, _, _ := percentile(build, 99)
	rep.set("graph.build_us_p50", b50/1e3)
	rep.set("graph.build_us_p99", b99/1e3)
	if len(ps.incremental) > 0 {
		v, _, _ := percentile(ps.incremental.sorted(), 50)
		rep.set("serve.incremental_ms_p50", v/1e6)
	}
	setSelfShares(rep, ps.spans)
	var runs coreRuns
	if err := checkSamples(ctx, rep, in, append(plain.kept, ps.kept...), &runs); err != nil {
		return err
	}
	runs.report(rep)
	n, edges := in.edges(request{item: 0})
	if err := runLadder(ctx, cfg, rep, grappolo.FromEdges(n, edges, 1)); err != nil {
		return err
	}
	return writeSpans(filepath.Join(cfg.workdir, "spans-serve-mix.tsv"), ps.spans)
}
