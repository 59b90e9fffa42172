package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"time"

	"grappolo"
	igen "grappolo/internal/generate"
)

// stream-edits insertion shape.
const (
	intraShare     = 0.7   // insertions inside a planted community; the rest are uniform
	edgesPerSecCap = 20000 // insertions generated per measured second
	streamBatch    = 1024  // grappolo's default BatchSize, for sizing only
	// streamCount independent streams, each on its own seed graph, take
	// the insertions in turn a batch at a time. How fast a stream's local
	// moves settle depends on its graph and on the path they took, so one
	// stream's apply times move by about a fifth from seed to seed; four
	// independent streams average that out.
	streamCount = 4
)

type streamInput struct {
	n       int                // vertices per stream
	arcs    int64              // seed-graph arcs over all streams
	streams []*grappolo.Stream // seeded: each one's first full detection has run
	edges   [][]grappolo.Edge  // each stream's insertions, in order
}

func makeStreamInput(cfg config) (streamInput, []byte, error) {
	n := 1 << cfg.size.streamLog2
	in := streamInput{n: n}
	h := newHasher()
	total := max((cfg.size.minApplies+1)*streamBatch, int(cfg.seconds.Seconds()*edgesPerSecCap))
	perStream := (total/streamCount/streamBatch + 1) * streamBatch
	for i := 0; i < streamCount; i++ {
		g, truth := igen.LFR(lfrConfig(n), subSeed(cfg.seed, uint64(10+i)), cfg.workers)
		edges := streamEdges(truth, perStream, rand.New(rand.NewPCG(cfg.seed, uint64(20+i))))
		h.add(edgesOf(g))
		h.add(truth)
		h.add(edges)
		s, err := grappolo.NewStream(g, detectOpts(cfg.workers))
		if err != nil {
			return in, nil, err
		}
		in.arcs += g.ArcCount()
		in.streams = append(in.streams, s)
		in.edges = append(in.edges, edges)
	}
	return in, h.sum(), nil
}

// streamEdges draws count insertions over a graph with the planted
// partition truth: intraShare of them inside the first endpoint's
// community, the rest uniform.
func streamEdges(truth []int32, count int, r *rand.Rand) []grappolo.Edge {
	n := int32(len(truth))
	// LFR numbers each community's vertices contiguously.
	lo := make([]int32, 0, 64)
	hi := make([]int32, 0, 64)
	for v, c := range truth {
		if int(c) == len(lo) {
			lo = append(lo, int32(v))
			hi = append(hi, int32(v))
		}
		hi[c] = int32(v) + 1
	}
	edges := make([]grappolo.Edge, 0, count)
	for len(edges) < count {
		u := r.Int32N(n)
		var v int32
		if r.Float64() < intraShare {
			c := truth[u]
			v = lo[c] + r.Int32N(hi[c]-lo[c])
		} else {
			v = r.Int32N(n)
		}
		if u != v {
			edges = append(edges, grappolo.Edge{U: u, V: v, W: 1})
		}
	}
	return edges
}

// streamPass records one pass of insertions.
type streamPass struct {
	inserted                      int
	elapsed                       time.Duration
	apply, local, refresh, buffer samples
	applies, fullRuns             int
}

func (p streamPass) edgesPerSec() float64 { return float64(p.inserted) / p.elapsed.Seconds() }

// feed inserts in.edges into the streams, one batch to each in turn,
// until d has passed and at least minApplies AddEdge calls applied a
// batch, timing every call and sorting it by what it did: buffer only, a
// local batch apply, or a refresh.
func feed(rep *report, in streamInput, d time.Duration, minApplies int, tr *recorder) streamPass {
	var p streamPass
	applies := make([]int, len(in.streams))
	full := make([]int, len(in.streams))
	for i, s := range in.streams {
		applies[i], full[i] = s.BatchApplies(), s.FullRuns()
	}
	var op int64
	start := time.Now()
	deadline := start.Add(d)
	for b := 0; ; b++ {
		i := b % len(in.streams)
		lo := b / len(in.streams) * streamBatch
		if lo >= len(in.edges[i]) {
			rep.notef("stream-edits ran out of insertions after %d applies", len(p.apply))
			break
		}
		s := in.streams[i]
		for _, e := range in.edges[i][lo:min(lo+streamBatch, len(in.edges[i]))] {
			sp := tr.begin(op, "dynamic.add_edge", -1)
			op++
			t0 := time.Now()
			err := s.AddEdge(e.U, e.V, e.W)
			el := time.Since(t0)
			tr.end(sp)
			rep.attempted++
			if err != nil {
				rep.fail("AddEdge(%d, %d): %v", e.U, e.V, err)
			} else {
				p.inserted++
			}
			if a, f := s.BatchApplies(), s.FullRuns(); a != applies[i] {
				p.apply.add(el)
				if f != full[i] {
					p.refresh.add(el)
				} else {
					p.local.add(el)
				}
				p.applies += a - applies[i]
				p.fullRuns += f - full[i]
				applies[i], full[i] = a, f
			} else {
				p.buffer.add(el)
			}
		}
		if len(p.apply) >= minApplies && time.Now().After(deadline) {
			break
		}
	}
	p.elapsed = time.Since(start)
	return p
}

// checkStreams flushes each stream, then checks that its modularity
// matches Modularity on its own snapshot and membership, and is within 2%
// of a cold detection on that snapshot. It returns the streams' mean
// modularity, and hands each cold detection with its wall time to cold
// when that is not nil.
func checkStreams(ctx context.Context, cfg config, rep *report, in streamInput, cold func(time.Duration, *grappolo.Result)) (float64, error) {
	var qs []float64
	for i, s := range in.streams {
		if err := s.Flush(); err != nil {
			rep.fail("stream %d: Flush: %v", i, err)
		}
		snap, mem := s.Snapshot(), s.Membership()
		q := s.Modularity()
		qs = append(qs, q)
		if len(mem) != snap.N() {
			rep.fail("stream %d: membership has %d entries for %d vertices", i, len(mem), snap.N())
			continue
		}
		if qm := grappolo.Modularity(snap, mem, 1, cfg.workers); relDiff(q, qm) > 1e-9 {
			rep.fail("stream %d: Stream.Modularity %.12f, Modularity on its snapshot %.12f", i, q, qm)
		}
		t0 := time.Now()
		res, err := grappolo.Detect(ctx, snap, detectOpts(cfg.workers)...)
		el := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("cold detect on stream %d's snapshot: %w", i, err)
		}
		if q < 0.98*res.Modularity {
			rep.fail("stream %d: Q %.6f below 98%% of a cold run's %.6f", i, q, res.Modularity)
		}
		rep.notef("stream %d: Q=%.6f, cold Q on its snapshot=%.6f", i, q, res.Modularity)
		if cold != nil {
			cold(el, res)
		}
	}
	return mean(qs), nil
}

func runStream(ctx context.Context, cfg config, rep *report) error {
	in, err := setupTimed(rep, func() (streamInput, []byte, error) { return makeStreamInput(cfg) })
	if err != nil {
		return err
	}
	rep.notef("stream-edits: %d streams of %d vertices, %d seed-graph arcs in all; %d insertions generated per stream",
		len(in.streams), in.n, in.arcs, len(in.edges[0]))
	if cfg.traced {
		return traceStream(ctx, cfg, rep, in)
	}
	mem := startMemSampler()
	p := feed(rep, in, cfg.seconds, cfg.size.minApplies, nil)
	rep.set("mem_peak_mb", mem.stopMB())
	apply := p.apply.sorted()
	p50, _, _ := percentile(apply, 50)
	p90, beyond, ok := percentile(apply, 90)
	if !ok && cfg.size.minApplies >= minSamplesFor(90) {
		return fmt.Errorf("stream-edits: %d applies leave %d beyond p90, need %d", len(apply), beyond, minBeyond)
	}
	// The tail is the refresh class's median, not p90 over all applies:
	// about every tenth apply is a refresh, so p90 sits on the boundary
	// between the classes and reads one or the other from run to run.
	if len(p.refresh) == 0 {
		return fmt.Errorf("stream-edits: %d applies ran no refresh", len(apply))
	}
	refresh := median(p.refresh.sorted())
	q, err := checkStreams(ctx, cfg, rep, in, nil)
	if err != nil {
		return err
	}
	rep.set("op_p50_ms", p50/1e6)
	rep.set("op_tail_ms", refresh/1e6)
	rep.set("throughput_per_s", p.edgesPerSec())
	rep.set("modularity", q)
	rep.notef("stream_edges_per_s=%.1f edges/s (%d edges in %.2f s)", p.edgesPerSec(), p.inserted, p.elapsed.Seconds())
	rep.notef("stream_apply_p50_ms=%.4f ms", p50/1e6)
	rep.notef("stream_apply_p90_ms=%.4f ms (n=%d applies, %d beyond)", p90/1e6, len(apply), beyond)
	rep.notef("stream_refresh_p50_ms=%.4f ms (n=%d refreshes)", refresh/1e6, len(p.refresh))
	rep.notef("stream_modularity=%.6f Q (mean over streams, after the final flush)", q)
	return nil
}

// traceStream is the traced stream-edits run: an untraced pass on one
// set of seeded streams and a traced pass on a second set built from the
// same seed (their rate ratio is the tracing overhead), with the cold
// detections of the final check as the refresh's engine cost.
func traceStream(ctx context.Context, cfg config, rep *report, traced streamInput) error {
	plainIn, _, err := makeStreamInput(cfg)
	if err != nil {
		return err
	}
	half := cfg.seconds / 2
	plain := feed(rep, plainIn, half, 1, nil)
	if _, err := checkStreams(ctx, cfg, rep, plainIn, nil); err != nil {
		return err
	}
	plainIn = streamInput{}
	clean()

	tr := newRecorder(time.Now())
	p := feed(rep, traced, half, 1, tr)
	rep.set("trace.overhead_frac", plain.edgesPerSec()/p.edgesPerSec()-1)
	buf, _, _ := percentile(p.buffer.sorted(), 50)
	local := p.local.sorted()
	l50, _, _ := percentile(local, 50)
	l90, _, _ := percentile(local, 90)
	r50, _, _ := percentile(p.refresh.sorted(), 50)
	rep.set("dynamic.buffer_ns_p50", buf)
	rep.set("dynamic.local_apply_ms_p50", l50/1e6)
	rep.set("dynamic.local_apply_ms_p90", l90/1e6)
	rep.set("dynamic.refresh_ms_p50", r50/1e6)
	rep.set("dynamic.batch_applies", float64(p.applies))
	rep.set("dynamic.full_runs", float64(p.fullRuns))
	if p.applies > 0 {
		rep.set("dynamic.refresh_share", float64(p.fullRuns)/float64(p.applies))
	}
	setSelfShares(rep, tr.spans)
	var runs coreRuns
	if _, err := checkStreams(ctx, cfg, rep, traced, runs.add); err != nil {
		return err
	}
	runs.report(rep)
	return writeSpans(filepath.Join(cfg.workdir, "spans-stream-edits.tsv"), tr.spans)
}
