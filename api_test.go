package grappolo_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"grappolo"
	"grappolo/internal/analysis"
	"grappolo/internal/core"
	"grappolo/internal/generate"
	"grappolo/internal/graph"
)

// publicConfigs pairs a public functional-options configuration with the
// internal core.Options it must be equivalent to — the public-API mirror of
// core's engineConfigs (deterministic configurations only: uncolored modes
// at any worker count, colored modes at one worker).
func publicConfigs() map[string]struct {
	opts []grappolo.Option
	core core.Options
} {
	type cfg = struct {
		opts []grappolo.Option
		core core.Options
	}
	colored1 := core.Options{Workers: 1, Coloring: core.ColorMultiPhase, ColoringVertexCutoff: 1}
	withBal := func(o core.Options, b core.ColorBalance) core.Options { o.ColorBalance = b; return o }
	d2 := colored1
	d2.Distance2Coloring = true
	jp := colored1
	jp.JonesPlassmann = true
	return map[string]cfg{
		"baseline-w4": {
			[]grappolo.Option{grappolo.Workers(4)},
			core.Options{Workers: 4}},
		"vf-chain-w4": {
			[]grappolo.Option{grappolo.Workers(4), grappolo.VFChains()},
			core.Options{Workers: 4, VertexFollowing: true, VFChainCompression: true}},
		"hierarchy-w4": {
			[]grappolo.Option{grappolo.Workers(4), grappolo.KeepHierarchy()},
			core.Options{Workers: 4, KeepHierarchy: true}},
		"serialrenumber-w2": {
			[]grappolo.Option{grappolo.Workers(2), grappolo.SerialRenumber()},
			core.Options{Workers: 2, SerialRenumber: true}},
		"cpm-w4": {
			[]grappolo.Option{grappolo.Workers(4), grappolo.CPM(0.5)},
			core.Options{Workers: 4, Objective: core.ObjCPM, CPMGamma: 0.5}},
		"color-w1": {
			[]grappolo.Option{grappolo.Workers(1), grappolo.Coloring(grappolo.Distance1), grappolo.ColoringCutoff(1)},
			colored1},
		"color-arc-w1": {
			[]grappolo.Option{grappolo.Workers(1), grappolo.Coloring(grappolo.Distance1), grappolo.ColoringCutoff(1), grappolo.Balance(grappolo.BalanceArcs)},
			withBal(colored1, core.BalanceArcs)},
		"color-auto-w1": {
			[]grappolo.Option{grappolo.Workers(1), grappolo.Coloring(grappolo.Distance1), grappolo.ColoringCutoff(1), grappolo.Balance(grappolo.BalanceAuto)},
			withBal(colored1, core.BalanceAuto)},
		"color-vertex-d2-w1": {
			[]grappolo.Option{grappolo.Workers(1), grappolo.Coloring(grappolo.Distance2), grappolo.ColoringCutoff(1), grappolo.Balance(grappolo.BalanceVertices)},
			withBal(d2, core.BalanceVertices)},
		"color-jp-w1": {
			[]grappolo.Option{grappolo.Workers(1), grappolo.Coloring(grappolo.JonesPlassmann), grappolo.ColoringCutoff(1)},
			jp},
	}
}

func sameResult(t *testing.T, name string, got, want *grappolo.Result) {
	t.Helper()
	if !slices.Equal(got.Membership, want.Membership) {
		t.Fatalf("%s: memberships differ", name)
	}
	if got.NumCommunities != want.NumCommunities || got.Modularity != want.Modularity {
		t.Fatalf("%s: nc=%d Q=%v, want nc=%d Q=%v",
			name, got.NumCommunities, got.Modularity, want.NumCommunities, want.Modularity)
	}
	if got.TotalIterations != want.TotalIterations || len(got.Phases) != len(want.Phases) {
		t.Fatalf("%s: iters=%d phases=%d, want iters=%d phases=%d",
			name, got.TotalIterations, len(got.Phases), want.TotalIterations, len(want.Phases))
	}
	if len(got.Levels) != len(want.Levels) {
		t.Fatalf("%s: %d hierarchy levels, want %d", name, len(got.Levels), len(want.Levels))
	}
	for l := range want.Levels {
		if !slices.Equal(got.Levels[l], want.Levels[l]) {
			t.Fatalf("%s: hierarchy level %d differs", name, l)
		}
	}
}

// TestDetectorMatchesCoreRun is the public-API golden test mirroring
// core's TestEngineReuseMatchesFreshRun: for every deterministic public
// configuration, a reused Detector — including DetectInto result recycling —
// is bit-identical to a fresh one-shot core.Run with the equivalent
// internal options.
func TestDetectorMatchesCoreRun(t *testing.T) {
	ctx := context.Background()
	for _, in := range []generate.Input{generate.CNR, generate.EuropeOSM} {
		g := generate.MustGenerate(in, generate.Small, 0, 4)
		for name, cfg := range publicConfigs() {
			want := core.Run(g, cfg.core)
			det, err := grappolo.New(cfg.opts...)
			if err != nil {
				t.Fatalf("%s: New: %v", name, err)
			}
			var res *grappolo.Result
			for rep := 0; rep < 3; rep++ {
				res, err = det.DetectInto(ctx, g, res)
				if err != nil {
					t.Fatalf("%s: Detect: %v", name, err)
				}
				sameResult(t, string(in)+"/"+name, res, want)
			}
		}
	}
}

// TestNewRejectsInvalidOptions pins the validation contract: every invalid
// value or combination is an error from New, never a silent correction.
func TestNewRejectsInvalidOptions(t *testing.T) {
	cases := map[string][]grappolo.Option{
		"negative-workers":      {grappolo.Workers(-1)},
		"cpm-zero-gamma":        {grappolo.CPM(0)},
		"cpm-negative-gamma":    {grappolo.CPM(-0.5)},
		"cpm-with-vf":           {grappolo.CPM(0.5), grappolo.VertexFollowing()},
		"cpm-with-vfchains":     {grappolo.VFChains(), grappolo.CPM(0.5)},
		"async-with-coloring":   {grappolo.Async(), grappolo.Coloring(grappolo.Distance1)},
		"firstphase-uncolored":  {grappolo.FirstPhaseColoring()},
		"zero-cutoff":           {grappolo.ColoringCutoff(0)},
		"negative-thresholds":   {grappolo.Thresholds(-1, 0)},
		"negative-resolution":   {grappolo.Resolution(-2)},
		"zero-resolution":       {grappolo.Resolution(0)},
		"negative-maxiter":      {grappolo.MaxIterations(-1)},
		"negative-maxphases":    {grappolo.MaxPhases(-3)},
		"unknown-coloring-kind": {grappolo.Coloring(grappolo.ColoringKind(99))},
		"unknown-balance-mode":  {grappolo.Balance(grappolo.BalanceMode(99))},
		"zero-auto-threshold":   {grappolo.AutoBalanceThreshold(0)},
		"nil-option":            {nil},
		// Options that only act with coloring enabled must not no-op.
		"balance-without-coloring": {grappolo.Balance(grappolo.BalanceArcs)},
		"cutoff-without-coloring":  {grappolo.ColoringCutoff(64)},
		"autothreshold-without-auto": {grappolo.Coloring(grappolo.Distance1),
			grappolo.Balance(grappolo.BalanceArcs), grappolo.AutoBalanceThreshold(0.4)},
	}
	for name, opts := range cases {
		if _, err := grappolo.New(opts...); err == nil {
			t.Errorf("%s: New accepted invalid options", name)
		}
	}
	// The valid boundary: no options at all is the paper's baseline.
	if _, err := grappolo.New(); err != nil {
		t.Fatalf("New() with no options: %v", err)
	}
}

// TestDetectHonorsCancellation pins the context contract on a large RGG:
// a canceled Detect returns ctx.Err() promptly — far sooner than the full
// detection takes — and the Detector stays usable afterwards.
func TestDetectHonorsCancellation(t *testing.T) {
	g := generate.MustGenerate(generate.RGG, generate.Medium, 0, 0)
	det, err := grappolo.New(grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}

	// Reference timing: one full, uncancelled detection.
	start := time.Now()
	want, err := det.Detect(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	// Pre-canceled context: no detection work at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := det.Detect(ctx, g); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-canceled Detect: res=%v err=%v, want nil, context.Canceled", res, err)
	}

	// Mid-run cancellation: cancel a twentieth of the way in; the run must
	// abort well before a full detection's worth of work.
	delay := full / 20
	if delay < time.Millisecond {
		delay = time.Millisecond
	}
	ctx, cancel = context.WithCancel(context.Background())
	timer := time.AfterFunc(delay, cancel)
	defer timer.Stop()
	start = time.Now()
	res, err := det.Detect(ctx, g)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("canceled Detect: res=%v err=%v, want nil, context.Canceled", res, err)
	}
	if elapsed > full/2+delay {
		t.Fatalf("canceled Detect took %v (cancel after %v); full run takes %v — cancellation not prompt", elapsed, delay, full)
	}

	// The Detector (and its warmed scratch) survives cancellation.
	res, err = det.Detect(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "post-cancel", res, want)
}

// TestExamplesUseOnlyPublicAPI enforces the API-boundary invariant: no file
// under examples/ or cmd/grappolo may import any grappolo/internal/...
// package. The logic lives in the internalimport analyzer (also run by CI
// via cmd/grappolovet); this is a thin wrapper so a boundary break still
// fails plain `go test ./...`.
func TestExamplesUseOnlyPublicAPI(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	cfg := analysis.Config{Root: root, Module: "grappolo"}
	findings, err := analysis.Run(cfg, []*analysis.Analyzer{analysis.InternalImport},
		[]string{"./examples/...", "./cmd/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestLoadGraphRejectsBadWeights pins the public loader's weight contract:
// an edge-list, METIS or binary file with a weight that is not a positive
// finite number fails with an error matching ErrBadEdgeWeight, the sentinel
// the streaming tier uses for the same inputs, instead of loading a graph
// that detection can never converge on.
func TestLoadGraphRejectsBadWeights(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"nan.txt":   "0 1 nan\n1 2 1\n",
		"inf.graph": "2 1 1\n2 inf\n1 inf\n",
	}
	// The binary format stores the CSR as is, so the bad weight goes into an
	// unchecked graph that WriteBinary serializes.
	for name, w := range map[string]float64{
		"nan.bin": math.NaN(), "inf.bin": math.Inf(1), "neginf.bin": math.Inf(-1), "zero.bin": 0, "neg.bin": -1,
	} {
		g, err := graph.FromCSR([]int64{0, 1, 2}, []int32{1, 0}, []float64{w, w}, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		files[name] = buf.String()
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := grappolo.LoadGraph(path, 1); !errors.Is(err, grappolo.ErrBadEdgeWeight) {
			t.Errorf("%s: err = %v, want ErrBadEdgeWeight", name, err)
		}
	}
}

// TestNonFiniteWeightRejectedByEveryEntryPoint pins that an in-memory graph
// carrying a NaN or +Inf weight — which NewBuilder's AddEdge stores as given
// — fails fast with ErrBadEdgeWeight on every detection path instead of
// iterating until the caller's deadline (or forever, without one).
func TestNonFiniteWeightRejectedByEveryEntryPoint(t *testing.T) {
	const deadline = 2 * time.Second
	newPool := func(t *testing.T) *grappolo.Pool {
		p, err := grappolo.NewPool(2, grappolo.Workers(2))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	entries := []struct {
		name string
		run  func(t *testing.T, ctx context.Context, g *grappolo.Graph) error
	}{
		{"Detector", func(t *testing.T, ctx context.Context, g *grappolo.Graph) error {
			d, err := grappolo.New(grappolo.Workers(2))
			if err != nil {
				t.Fatal(err)
			}
			_, err = d.Detect(ctx, g)
			return err
		}},
		{"Pool", func(t *testing.T, ctx context.Context, g *grappolo.Graph) error {
			_, err := newPool(t).Detect(ctx, g)
			return err
		}},
		{"Batcher", func(t *testing.T, ctx context.Context, g *grappolo.Graph) error {
			_, err := grappolo.NewBatcher(newPool(t)).Detect(ctx, g)
			return err
		}},
		{"CacheMiss", func(t *testing.T, ctx context.Context, g *grappolo.Graph) error {
			c, err := grappolo.NewCache(newPool(t))
			if err != nil {
				t.Fatal(err)
			}
			_, err = c.Detect(ctx, g)
			return err
		}},
		{"Guard", func(t *testing.T, ctx context.Context, g *grappolo.Graph) error {
			gd, err := grappolo.NewGuard(newPool(t))
			if err != nil {
				t.Fatal(err)
			}
			_, err = gd.Detect(ctx, g)
			return err
		}},
		{"Sharded", func(t *testing.T, ctx context.Context, g *grappolo.Graph) error {
			s, err := grappolo.NewSharded(newPool(t), grappolo.WithShards(2))
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.Detect(ctx, g)
			return err
		}},
		{"NewStream", func(t *testing.T, ctx context.Context, g *grappolo.Graph) error {
			_, err := grappolo.NewStream(g, []grappolo.Option{grappolo.Workers(2)})
			return err
		}},
	}
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		for _, e := range entries {
			b := grappolo.NewBuilder(3)
			b.AddEdge(0, 1, w)
			b.AddEdge(1, 2, 1)
			g := b.Build(1)
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			start := time.Now()
			err := e.run(t, ctx, g)
			elapsed := time.Since(start)
			cancel()
			if !errors.Is(err, grappolo.ErrBadEdgeWeight) {
				t.Errorf("%s w=%v: err = %v, want ErrBadEdgeWeight", e.name, w, err)
			}
			if elapsed > deadline/4 {
				t.Errorf("%s w=%v: took %v, want well inside the %v deadline", e.name, w, elapsed, deadline)
			}
		}
	}
}
