package grappolo_test

import (
	"context"
	"testing"
	"time"

	"grappolo"
	"grappolo/internal/generate"
)

// TestGuardWarmZeroAllocs extends the allocation-regression gate to the
// resilience tier: a warm, non-degraded Guard request whose context
// already carries a deadline — admission fast path, pool permit, engine
// checkout, the full pipeline, result write-back — performs ZERO
// allocations, even with every Guard policy armed. The Guard may allocate
// only to shed, to derive a default deadline for a deadline-less context,
// or on the degraded path; none of those fire here. Single worker: the
// goroutine spawns of multi-worker sweeps inherently allocate.
func TestGuardWarmZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	gd, err := grappolo.NewGuard(pool,
		grappolo.MaxQueueDepth(4),
		grappolo.MaxQueueWait(time.Second),
		grappolo.DetectDeadline(time.Minute),
		grappolo.DegradeAtDepth(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel()
	res, err := gd.Detect(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun's uncounted warm-up call is the one recycling pass needed.
	allocs := testing.AllocsPerRun(3, func() {
		res, err = gd.DetectInto(ctx, g, res)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm non-degraded Guard.DetectInto allocates %v times per request, want 0", allocs)
	}
	if res.Degraded {
		t.Error("unpressured request marked Degraded")
	}
	if res.NumCommunities <= 1 || res.Modularity <= 0 {
		t.Fatalf("degenerate result nc=%d Q=%v", res.NumCommunities, res.Modularity)
	}
}
