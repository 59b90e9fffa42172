package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"grappolo"
	igen "grappolo/internal/generate"
	"grappolo/internal/graph"
	"grappolo/quality"
)

// nmiFloor is the batch-file check on planted-partition recovery.
const nmiFloor = 0.80

// lfrConfig is the LFR shape both batch-file and stream-edits draw from:
// average degree 16, mixing mu = 0.3, power-law degrees and communities.
func lfrConfig(n int) igen.LFRConfig {
	return igen.LFRConfig{
		N: n, AvgDegree: 16, MaxDegree: min(256, n/8),
		DegreeExp: 2.5, CommExp: 1.5, MinComm: 20, MaxComm: min(1000, n/4),
		Mu: 0.3,
	}
}

// batchInput is the batch-file set-up: a .bin CSR file and the planted
// partition it was generated with.
type batchInput struct {
	path  string
	bytes int64
	arcs  int64
	n     int
	truth []int32
}

// batchOut is one load → detect → write op.
type batchOut struct {
	g                  *grappolo.Graph
	res                *grappolo.Result
	wall, load, detect time.Duration
	peakMB             float64 // during the op, when sampled
}

func runBatch(ctx context.Context, cfg config, rep *report) error {
	n := 1 << cfg.size.batchLog2
	in, err := setupTimed(rep, func() (batchInput, []byte, error) {
		return makeBatchInput(cfg, n)
	})
	if err != nil {
		return err
	}
	rep.notef("batch-file input: %d vertices, %d arcs, %d bytes in %s", in.n, in.arcs, in.bytes, filepath.Base(in.path))
	out := filepath.Join(cfg.workdir, "batch.membership")
	if cfg.traced {
		return traceBatch(ctx, cfg, rep, in, out)
	}

	var walls, qs, peaks []float64
	var edges int64
	mem := startMemSampler()
	runBatchOps(ctx, cfg, rep, in, out, batchOps(cfg), nil, mem, func(o batchOut) {
		peaks = append(peaks, o.peakMB)
		walls = append(walls, o.wall.Seconds())
		qs = append(qs, o.res.Modularity)
		edges = o.g.EdgeCount()
	})
	mem.stopMB()
	// The median over ops keeps one badly timed GC cycle from setting it.
	rep.set("mem_peak_mb", median(peaks))
	if len(walls) == 0 {
		return fmt.Errorf("batch-file: no op completed")
	}
	wall := median(walls)
	slowest := walls[0]
	for _, w := range walls {
		slowest = max(slowest, w)
	}
	rep.set("op_p50_ms", wall*1e3)
	rep.set("op_tail_ms", slowest*1e3)
	rep.set("throughput_per_s", float64(edges)/wall)
	rep.set("modularity", median(qs))
	rep.notef("batch_wall_s=%.4f s (median of %d ops; max %.4f s: no percentile has %d ops beyond it)", wall, len(walls), slowest, minBeyond)
	rep.notef("batch_modularity=%.6f Q", median(qs))
	rep.notef("batch edges/s=%.0f (%d edges)", float64(edges)/wall, edges)
	return nil
}

// pendantEvery sets the batch-file degree-1 vertices: one in 16. LFR
// draws degrees of at least 2, so without them whether vertex following
// has work (a whole-graph rebuild) would hinge on a seed leaving a stray
// degree-1 vertex; real graphs have many.
const pendantEvery = 16

func makeBatchInput(cfg config, n int) (batchInput, []byte, error) {
	in := batchInput{path: filepath.Join(cfg.workdir, "batch.bin"), n: n}
	pendants := n / pendantEvery
	lfr, lfrTruth := igen.LFR(lfrConfig(n-pendants), subSeed(cfg.seed, 1), cfg.workers)
	g, truth, err := withPendants(lfr, lfrTruth, pendants, subSeed(cfg.seed, 2), cfg.workers)
	if err != nil {
		return in, nil, err
	}
	in.truth = truth
	in.arcs = g.ArcCount()
	f, err := os.Create(in.path)
	if err != nil {
		return in, nil, err
	}
	if err := graph.WriteBinary(f, g); err != nil {
		f.Close()
		return in, nil, fmt.Errorf("write %s: %w", in.path, err)
	}
	// Sync, so write-back of the file does not spill into the timed ops.
	if err := f.Sync(); err != nil {
		f.Close()
		return in, nil, fmt.Errorf("write %s: %w", in.path, err)
	}
	if err := f.Close(); err != nil {
		return in, nil, fmt.Errorf("write %s: %w", in.path, err)
	}
	st, err := os.Stat(in.path)
	if err != nil {
		return in, nil, err
	}
	in.bytes = st.Size()
	fileSum, err := hashFile(in.path)
	if err != nil {
		return in, nil, err
	}
	h := newHasher()
	h.add(fileSum)
	h.add(truth)
	return in, h.sum(), nil
}

// withPendants appends p degree-1 vertices to g, each attached to a
// uniformly drawn vertex of g and planted in that vertex's community. A
// pendant's id exceeds every id of g, so appending its arc keeps the
// anchor's row sorted and the CSR can be built directly.
func withPendants(g *graph.Graph, truth []int32, p int, seed uint64, workers int) (*graph.Graph, []int32, error) {
	n0 := g.N()
	r := rand.New(rand.NewPCG(seed, 0))
	anchor := make([]int32, p)
	extra := make([]int64, n0)
	for i := range anchor {
		anchor[i] = r.Int32N(int32(n0))
		extra[anchor[i]]++
	}
	n := n0 + p
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		d := int64(1)
		if v < n0 {
			d = int64(g.OutDegree(v)) + extra[v]
		}
		offsets[v+1] = offsets[v] + d
	}
	adj := make([]int32, offsets[n])
	weights := make([]float64, offsets[n])
	fill := make([]int64, n0)
	for v := 0; v < n0; v++ {
		nbr, w := g.Neighbors(v)
		copy(adj[offsets[v]:], nbr)
		copy(weights[offsets[v]:], w)
		fill[v] = offsets[v] + int64(len(nbr))
	}
	truth = append(truth[:n0:n0], make([]int32, p)...)
	for i, a := range anchor {
		v := int32(n0 + i)
		adj[fill[a]], weights[fill[a]] = v, 1
		fill[a]++
		adj[offsets[v]], weights[offsets[v]] = a, 1
		truth[v] = truth[a]
	}
	// LoadGraph validates the file's CSR on every op; set-up need not.
	out, err := graph.FromCSR(offsets, adj, weights, workers, false)
	if err != nil {
		return nil, nil, fmt.Errorf("add pendants: %w", err)
	}
	return out, truth, nil
}

// batchOpSeconds is the batch op's nominal time, about what it took on a
// 2-vCPU box.
const batchOpSeconds = 6.5

// batchOps is how many ops a batch-file run makes: --seconds divided by
// the nominal op time, not by how fast the ops go, so every run takes its
// median and maximum over the same count.
func batchOps(cfg config) int {
	return max(1, int(math.Round(cfg.seconds.Seconds()/batchOpSeconds)))
}

// runBatchOps runs the op ops times, checking each op's output and
// handing each that passes to each. Ops that fail are counted failed.
// Each op starts from a collected heap; with a sampler, its peak memory is
// the op's own.
func runBatchOps(ctx context.Context, cfg config, rep *report, in batchInput, out string, ops int, tr *recorder, mem *memSampler, each func(batchOut)) {
	for i := 0; i < ops; i++ {
		clean()
		if mem != nil {
			mem.lapMB()
		}
		rep.attempted++
		o, err := batchOp(ctx, cfg, in.path, out, tr, int64(i))
		if mem != nil {
			o.peakMB = mem.lapMB()
		}
		if err != nil {
			rep.fail("batch op %d: %v", i, err)
			continue
		}
		if msg := checkBatch(o, in, cfg.workers); msg != "" {
			rep.fail("batch op %d: %s", i, msg)
			continue
		}
		each(o)
	}
}

// batchOp is the measured unit: LoadGraph → Detector.Detect → write the
// membership file.
func batchOp(ctx context.Context, cfg config, in, out string, tr *recorder, op int64) (batchOut, error) {
	var o batchOut
	root := tr.begin(op, "bench.op", -1)
	defer tr.end(root)
	t0 := time.Now()

	s := tr.begin(op, "graph.load", root)
	g, err := grappolo.LoadGraph(in, cfg.workers)
	tr.end(s)
	t1 := time.Now()
	if err != nil {
		return o, fmt.Errorf("load: %w", err)
	}

	s = tr.begin(op, "core.detect", root)
	var res *grappolo.Result
	d, err := grappolo.New(detectOpts(cfg.workers)...)
	if err == nil {
		res, err = d.Detect(ctx, g)
	}
	tr.end(s)
	t2 := time.Now()
	if err != nil {
		return o, fmt.Errorf("detect: %w", err)
	}

	s = tr.begin(op, "io.write", root)
	err = writeMembership(out, res.Membership)
	tr.end(s)
	if err != nil {
		return o, err
	}
	return batchOut{g: g, res: res, wall: time.Since(t0), load: t1.Sub(t0), detect: t2.Sub(t1)}, nil
}

// writeMembership writes "vertex community" lines, the CLI's -out format.
func writeMembership(path string, membership []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var line []byte
	for v, c := range membership {
		line = strconv.AppendInt(line[:0], int64(v), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(c), 10)
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			f.Close()
			return fmt.Errorf("write membership: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write membership: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write membership: %w", err)
	}
	return nil
}

// checkBatch verifies one op: a dense partition of every vertex, a
// reported Q that matches Modularity on the membership, and planted
// partition recovery above nmiFloor.
func checkBatch(o batchOut, in batchInput, workers int) string {
	if o.g.N() != in.n {
		return fmt.Sprintf("loaded %d vertices, generated %d", o.g.N(), in.n)
	}
	if msg := checkPartition(o.res.Membership, in.n, o.res.NumCommunities); msg != "" {
		return msg
	}
	q := grappolo.Modularity(o.g, o.res.Membership, 1, workers)
	if relDiff(q, o.res.Modularity) > 1e-9 {
		return fmt.Sprintf("reported Q %.12f, Modularity gives %.12f", o.res.Modularity, q)
	}
	nmi, err := quality.NMI(in.truth, o.res.Membership)
	if err != nil {
		return fmt.Sprintf("NMI: %v", err)
	}
	if nmi < nmiFloor {
		return fmt.Sprintf("NMI %.4f against the planted partition, floor %.2f", nmi, nmiFloor)
	}
	return ""
}

// traceBatch is the traced batch-file run: an untraced and a traced pass
// of the op (their ratio is the tracing overhead), then the paper's
// reference points on the same graph: one worker, the serial reference,
// and the sharded tier.
func traceBatch(ctx context.Context, cfg config, rep *report, in batchInput, out string) error {
	half := max(1, batchOps(cfg)/2)
	var plain, load, walls []float64
	runBatchOps(ctx, cfg, rep, in, out, half, nil, nil, func(o batchOut) {
		plain = append(plain, o.wall.Seconds())
	})
	tr := newRecorder(time.Now())
	var (
		runs coreRuns
		last batchOut
	)
	runBatchOps(ctx, cfg, rep, in, out, half, tr, nil, func(o batchOut) {
		walls = append(walls, o.wall.Seconds())
		load = append(load, o.load.Seconds())
		runs.add(o.detect, o.res)
		last = o
	})
	if len(plain) == 0 || len(walls) == 0 {
		return fmt.Errorf("batch-file: no op completed")
	}
	detect := median(runs.detect)
	rep.set("trace.overhead_frac", median(walls)/median(plain)-1)
	rep.set("graph.load_s", median(load))
	rep.set("graph.load_mb_per_s", float64(in.bytes)/1e6/median(load))
	runs.report(rep)
	setSelfShares(rep, tr.spans)

	// Reference points on the loaded graph, each a span of its own.
	g := last.g
	ref := newRecorder(tr.epoch)
	s := ref.begin(-1, "core.detect_w1", -1)
	t0 := time.Now()
	w1, err := grappolo.Detect(ctx, g, detectOpts(1)...)
	ref.end(s)
	if err != nil {
		return fmt.Errorf("detect at one worker: %w", err)
	}
	dw1 := time.Since(t0).Seconds()
	rep.set("core.detect_w1_s", dw1)
	rep.set("par.speedup", dw1/detect)
	rep.set("par.efficiency", dw1/detect/float64(cfg.workers))
	rep.notef("one-worker Q=%.6f", w1.Modularity)

	s = ref.begin(-1, "seq.detect", -1)
	t0 = time.Now()
	sr, err := grappolo.DetectSerial(g, 0)
	ref.end(s)
	if err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	ds := time.Since(t0).Seconds()
	rep.set("seq.detect_s", ds)
	rep.set("seq.modularity", sr.Modularity)
	rep.set("seq.speedup_vs_parallel", ds/detect)

	pool, err := grappolo.NewPool(cfg.workers, detectOpts(1)...)
	if err != nil {
		return err
	}
	sh, err := grappolo.NewSharded(pool, grappolo.WithShards(cfg.workers))
	if err != nil {
		return err
	}
	s = ref.begin(-1, "shard.detect", -1)
	t0 = time.Now()
	shr, err := sh.Detect(ctx, g)
	ref.end(s)
	if err != nil {
		return fmt.Errorf("sharded: %w", err)
	}
	rep.set("shard.detect_s", time.Since(t0).Seconds())
	rep.set("shard.modularity", shr.Modularity)
	return writeSpans(filepath.Join(cfg.workdir, "spans-batch-file.tsv"), merge([]*recorder{tr, ref}))
}
