package grappolo_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"grappolo"
	"grappolo/internal/generate"
)

// TestBatcherWarmZeroAllocs extends the serving-path allocation gate to the
// batcher: a warm same-shape leader request — fingerprint cache hit, batch
// record checkout from the free list, pool admission, the full detection
// pipeline into the pooled shared Result, the copy-out into the caller's
// recycled Result, and the batch recycle — performs ZERO allocations.
// Single worker: multi-worker sweeps inherently allocate goroutines.
func TestBatcherWarmZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	b := grappolo.NewBatcher(pool)
	ctx := context.Background()
	res, err := b.Detect(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun's uncounted warm-up call is the one recycling pass needed.
	allocs := testing.AllocsPerRun(3, func() {
		res, err = b.DetectInto(ctx, g, res)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm same-shape Batcher.DetectInto (leader path) allocates %v times per request, want 0", allocs)
	}
	if res.NumCommunities <= 1 || res.Modularity <= 0 {
		t.Fatalf("degenerate result nc=%d Q=%v", res.NumCommunities, res.Modularity)
	}

	// Alternating between two resident graphs must stay zero-alloc too. The
	// old fingerprint fast path cached only the single most recent *Graph,
	// so a loop ping-ponging between two graphs missed it on EVERY request
	// and allocated a fresh cache record each time — the memoized per-Graph
	// hashes have no such thrash mode. Separate recycled Results per graph
	// keep the copy-out shape stable.
	g2 := generate.MustGenerate(generate.RGG, generate.Small, 1, 1)
	res2, err := b.Detect(ctx, g2)
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun's uncounted warm-up call is the one recycling pass needed.
	allocs = testing.AllocsPerRun(4, func() {
		res, err = b.DetectInto(ctx, g, res)
		if err != nil {
			return
		}
		res2, err = b.DetectInto(ctx, g2, res2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm alternating two-graph Batcher.DetectInto allocates %v times per round, want 0", allocs)
	}
}

// TestBatcherFollowerAllocsBounded pins the follower side: a coalesced
// waiter costs O(1) allocations — its join record and signal channel plus
// the copy-out bookkeeping — independent of graph size and of how many
// rounds run. Measured as a global allocation delta over many choreographed
// batches with recycled per-follower Results, so per-round growth (an O(n)
// slice allocated per follower, say) would blow the bound immediately.
func TestBatcherFollowerAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	b := grappolo.NewBatcher(pool)
	ctx := context.Background()

	const followers = 4
	const rounds = 20
	followerRes := make([]*grappolo.Result, followers)
	leaderRes, err := b.Detect(ctx, g)
	if err != nil {
		t.Fatal(err)
	}

	round := func() {
		if err := pool.HoldEnginePermit(ctx); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			leaderRes, err = b.DetectInto(ctx, g, leaderRes)
			if err != nil {
				t.Error(err)
			}
		}()
		for pool.QueuedWaiters() != 1 {
			runtime.Gosched()
		}
		base := b.JoinedFollowers()
		for i := 0; i < followers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var err error
				followerRes[i], err = b.DetectInto(ctx, g, followerRes[i])
				if err != nil {
					t.Error(err)
				}
			}(i)
		}
		for b.JoinedFollowers() != base+followers {
			runtime.Gosched()
		}
		pool.ReleaseEnginePermit()
		wg.Wait()
	}
	round() // warm every path (shared result, follower Results, free lists)
	round()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perFollower := float64(after.Mallocs-before.Mallocs) / float64(rounds*followers)
	// The real warm cost is ~10 small allocations per follower (goroutine +
	// join record + channel + waitgroup bookkeeping); 64 leaves slack for
	// runtime noise while still catching any O(graph) copy regression
	// (membership alone is >1000 entries here).
	if perFollower > 64 {
		t.Errorf("follower path averages %.1f allocs/request, want O(1) (<= 64)", perFollower)
	}
}

// BenchmarkBatcherDetect drives duplicate same-graph load through the
// serving layer, batched (Batcher in front of the Pool — concurrent
// requesters coalesce onto one engine run) versus unbatched (each request
// runs privately on a pooled engine). The batched/unbatched throughput
// ratio under duplicate load is the coalescing win; allocs/op extends the
// serving-path allocation gate to the batcher.
func BenchmarkBatcherDetect(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, generate.ScaleFromEnv(), 0, 0)
	newPool := func(b *testing.B) *grappolo.Pool {
		pool, err := grappolo.NewPool(runtime.GOMAXPROCS(0), grappolo.Workers(1))
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
	b.Run("unbatched", func(b *testing.B) {
		pool := newPool(b)
		ctx := context.Background()
		b.ReportAllocs()
		b.SetParallelism(8) // 8×GOMAXPROCS requesters: duplicate overload on any core count
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
	b.Run("batched", func(b *testing.B) {
		bat := grappolo.NewBatcher(newPool(b))
		ctx := context.Background()
		b.ReportAllocs()
		b.SetParallelism(8) // same fleet; duplicates now coalesce onto shared runs
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var res *grappolo.Result
			var err error
			for pb.Next() {
				if res, err = bat.DetectInto(ctx, g, res); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
