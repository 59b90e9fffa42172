package grappolo_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"grappolo"
	"grappolo/internal/generate"
)

// TestPoolDetectWarmZeroAllocs extends the engine-allocation regression
// gate to the serving path: once a pooled engine has served a graph shape
// and the caller recycles its Result, a further same-shape DetectInto —
// permit acquisition, size-class engine checkout, the full detection
// pipeline, result write-back and engine return included — performs ZERO
// allocations. Single worker: the goroutine spawns of multi-worker sweeps
// inherently allocate.
func TestPoolDetectWarmZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := pool.Detect(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun's uncounted warm-up call is the one recycling pass needed.
	allocs := testing.AllocsPerRun(3, func() {
		res, err = pool.DetectInto(ctx, g, res)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm same-shape Pool.DetectInto allocates %v times per request, want 0", allocs)
	}
	if res.NumCommunities <= 1 || res.Modularity <= 0 {
		t.Fatalf("degenerate result nc=%d Q=%v", res.NumCommunities, res.Modularity)
	}
}

// BenchmarkPoolDetect drives a warm Pool from parallel requesters — the
// serving-shell steady state. allocs/op is the serving-path extension of
// the engine-allocation regression gate: with per-goroutine result
// recycling (DetectInto) warm same-shape requests report 0 allocs/op at
// one worker per engine.
func BenchmarkPoolDetect(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, generate.ScaleFromEnv(), 0, 0)
	newPool := func(b *testing.B, workers int) *grappolo.Pool {
		pool, err := grappolo.NewPool(runtime.GOMAXPROCS(0),
			grappolo.Workers(workers),
			grappolo.VertexFollowing(),
			grappolo.Coloring(grappolo.Distance1),
			grappolo.ColoringCutoff(512))
		if err != nil {
			b.Fatal(err)
		}
		// Warm every engine the parallel phase can check out at once.
		ctx := context.Background()
		var wg sync.WaitGroup
		for i := 0; i < pool.Size(); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := pool.Detect(ctx, g); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
		return pool
	}
	b.Run("warm-w1", func(b *testing.B) {
		pool := newPool(b, 1)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var res *grappolo.Result
			var err error
			for pb.Next() {
				if res, err = pool.DetectInto(ctx, g, res); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
