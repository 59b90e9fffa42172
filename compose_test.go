package grappolo

import (
	"context"
	"testing"

	"grappolo/internal/generate"
)

// TestCompositionMatrix drives every engine-backed chain of the serving
// stack through a Guard and pins the composition seam: the Guard's engine
// counters are exactly the wrapped tier's own, whatever the chain, and the
// degraded engine set mirrors the chain's engine-side shape (a chain that
// coalesces below any caches degrades onto a Batcher, every other chain
// onto a plain Pool).
func TestCompositionMatrix(t *testing.T) {
	ctx := context.Background()
	graphs := []*Graph{
		generate.MustGenerate(generate.RGG, generate.Small, 0, 1),
		generate.MustGenerate(generate.RGG, generate.Small, 1, 1),
		generate.MustGenerate(generate.RGG, generate.Small, 2, 1),
	}
	const requests = 9

	cached := func(b Detecter) Detecter {
		c, err := NewCache(b)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	sharded := func(p *Pool) *Sharded {
		s, err := NewSharded(p, WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Each chain returns the Guard's backend, the wrapped tier's own engine
	// counters, and whether the chain coalesces beneath its caches.
	chains := []struct {
		name  string
		build func(p *Pool) (backend Detecter, own func() PoolStats, coalesces bool)
	}{
		{"Pool", func(p *Pool) (Detecter, func() PoolStats, bool) {
			return p, p.Stats, false
		}},
		{"Batcher", func(p *Pool) (Detecter, func() PoolStats, bool) {
			b := NewBatcher(p)
			return b, b.Stats, true
		}},
		{"Sharded", func(p *Pool) (Detecter, func() PoolStats, bool) {
			s := sharded(p)
			return s, s.Stats, false
		}},
		{"Cache(Pool)", func(p *Pool) (Detecter, func() PoolStats, bool) {
			return cached(p), p.Stats, false
		}},
		{"Cache(Batcher)", func(p *Pool) (Detecter, func() PoolStats, bool) {
			b := NewBatcher(p)
			return cached(b), b.Stats, true
		}},
		{"Cache(Sharded)", func(p *Pool) (Detecter, func() PoolStats, bool) {
			s := sharded(p)
			return cached(s), s.Stats, false
		}},
	}
	for _, ch := range chains {
		t.Run(ch.name, func(t *testing.T) {
			pool, err := NewPool(2, Workers(1))
			if err != nil {
				t.Fatal(err)
			}
			backend, own, coalesces := ch.build(pool)
			gd, err := NewGuard(backend, DegradeAtDepth(1))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < requests; i++ {
				if _, err := gd.Detect(ctx, graphs[i%len(graphs)]); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
			got, want := gd.Stats().PoolStats, own()
			if got != want {
				t.Errorf("Guard.Stats().PoolStats = %+v, wrapped tier's own counters %+v", got, want)
			}
			if got.Led == 0 {
				t.Error("no engine run counted")
			}
			if _, isBatcher := gd.degraded.(*Batcher); isBatcher != coalesces {
				t.Errorf("degraded set is %T, want a Batcher: %v", gd.degraded, coalesces)
			}
		})
	}

	d, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		name    string
		backend Detecter
	}{{"nil", nil}, {"Detector", d}} {
		if _, err := NewCache(bad.backend); err == nil {
			t.Errorf("NewCache(%s) succeeded, want error", bad.name)
		}
		if _, err := NewGuard(bad.backend); err == nil {
			t.Errorf("NewGuard(%s) succeeded, want error", bad.name)
		}
	}
}
