package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"grappolo"
)

// allocRounds is how many calls per tier the allocation count averages.
const allocRounds = 50

// tier is one rung of the serving ladder: the same warm graph sent
// through a deeper stack each time.
type tier struct {
	name   string
	d      grappolo.Detecter
	before func() // untimed preparation before each call
}

// runLadder sends one warm Small graph through Detector, Pool, Batcher,
// Cache (miss, then hit) and Guard over a cache hit, one call per tier per
// round so drift hits every tier alike, and reports each tier's added
// time (median over rounds of its paired difference with the rung below)
// and allocations (counted around each call).
func runLadder(ctx context.Context, cfg config, rep *report, g *grappolo.Graph) error {
	opts := detectOpts(1)
	newCache := func() (*grappolo.Cache, error) {
		p, err := grappolo.NewPool(1, opts...)
		if err != nil {
			return nil, err
		}
		return grappolo.NewCache(grappolo.NewBatcher(p), grappolo.CacheBytes(cacheBytes), grappolo.DeltaEdits(deltaEdits))
	}
	det, err := grappolo.New(opts...)
	if err != nil {
		return err
	}
	pool, err := grappolo.NewPool(1, opts...)
	if err != nil {
		return err
	}
	bp, err := grappolo.NewPool(1, opts...)
	if err != nil {
		return err
	}
	miss, err := newCache()
	if err != nil {
		return err
	}
	hit, err := newCache()
	if err != nil {
		return err
	}
	gc, err := newCache()
	if err != nil {
		return err
	}
	guard, err := grappolo.NewGuard(gc)
	if err != nil {
		return err
	}
	tiers := []tier{
		{name: "detector", d: det},
		{name: "pool", d: pool},
		{name: "batcher", d: grappolo.NewBatcher(bp)},
		{name: "cache_miss", d: miss, before: func() { miss.InvalidateAll() }},
		{name: "cache_hit", d: hit},
		{name: "guard", d: guard},
	}
	results := make([]*grappolo.Result, len(tiers))
	us := make([][]float64, len(tiers))
	for round := -3; round < cfg.size.ladderRounds; round++ { // three warm-up rounds
		for i, t := range tiers {
			if t.before != nil {
				t.before()
			}
			t0 := time.Now()
			r, err := t.d.DetectInto(ctx, g, results[i])
			el := time.Since(t0)
			if err != nil {
				return fmt.Errorf("ladder %s: %w", t.name, err)
			}
			results[i] = r
			if round >= 0 {
				us[i] = append(us[i], float64(el.Nanoseconds())/1e3)
			}
		}
	}
	allocs := make([]float64, len(tiers))
	var m0, m1 runtime.MemStats
	for i, t := range tiers {
		var total uint64
		for k := 0; k < allocRounds; k++ {
			if t.before != nil {
				t.before()
			}
			runtime.ReadMemStats(&m0)
			r, err := t.d.DetectInto(ctx, g, results[i])
			runtime.ReadMemStats(&m1)
			if err != nil {
				return fmt.Errorf("ladder %s: %w", t.name, err)
			}
			results[i] = r
			total += m1.Mallocs - m0.Mallocs
		}
		allocs[i] = float64(total) / allocRounds
	}
	for i := range tiers {
		rep.notef("ladder %-10s %9.2f us/call %7.2f allocs/call", tiers[i].name, median(us[i]), allocs[i])
	}
	const detector, pooled, batched, cacheMiss, cacheHit, guarded = 0, 1, 2, 3, 4, 5
	// added is the median over rounds of a tier's time minus the rung
	// below it in the same round: a tier adds microseconds to a
	// detection whose own time varies by more than that between rounds.
	added := func(tier, below int) float64 {
		d := make([]float64, len(us[tier]))
		for r := range d {
			d[r] = us[tier][r] - us[below][r]
		}
		return median(d)
	}
	rep.set("ladder.detector_us", median(us[detector]))
	rep.set("ladder.detector_allocs", allocs[detector])
	rep.set("pool.added_us", added(pooled, detector))
	rep.set("pool.added_allocs", allocs[pooled]-allocs[detector])
	rep.set("batcher.added_us", added(batched, pooled))
	rep.set("batcher.added_allocs", allocs[batched]-allocs[pooled])
	rep.set("cache.miss_added_us", added(cacheMiss, batched))
	rep.set("cache.miss_added_allocs", allocs[cacheMiss]-allocs[batched])
	rep.set("cache.hit_us", median(us[cacheHit]))
	rep.set("cache.hit_allocs", allocs[cacheHit])
	rep.set("guard.added_us", added(guarded, cacheHit))
	rep.set("guard.added_allocs", allocs[guarded]-allocs[cacheHit])
	return nil
}
