package par

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// coverCtx records how often loop bodies visited each item, and counts
// bodies handed an index or range they should not have had.
type coverCtx struct {
	n, nw  int            // items per stage, Workers(p, n)
	hits   []atomic.Int32 // one per item per covering stage
	slabs  []atomic.Int32 // static schedule: runs per slab
	prefix []int64
	bad    atomic.Int32
}

func (c *coverCtx) visit(idx, lo, hi int) {
	if idx < 0 || idx >= c.nw || lo < 0 || hi > len(c.hits) || lo >= hi {
		c.bad.Add(1)
		return
	}
	for i := lo; i < hi; i++ {
		c.hits[i].Add(1)
	}
}

// coverStages is the staged schedule's stage lengths: two stages of n items
// with an empty stage between them.
func coverStages(c *coverCtx, s int) int {
	if s == 1 {
		return 0
	}
	return c.n
}

// TestForCoversEveryIndexOnce runs every schedule over p ∈ {1,2,3,8} and
// n ∈ {0,1,p−1,1000}. Each item must be visited exactly once, each body
// index must be below Workers(p, n), and the static schedule must hand slab
// c exactly the range [c·n/p, (c+1)·n/p) with c as its index, once.
func TestForCoversEveryIndexOnce(t *testing.T) {
	schedules := []struct {
		name   string
		stages int // covering stages; hits has stages·n items
		run    func(c *coverCtx, p int)
	}{
		{"chunk", 1, func(c *coverCtx, p int) {
			ForChunkCtx(c, c.n, p, 0, func(c *coverCtx, w, lo, hi int) { c.visit(w, lo, hi) })
		}},
		{"chunk/grain7", 1, func(c *coverCtx, p int) {
			ForChunkCtx(c, c.n, p, 7, func(c *coverCtx, w, lo, hi int) { c.visit(w, lo, hi) })
		}},
		{"prefix", 1, func(c *coverCtx, p int) {
			ForChunkPrefixCtx(c, c.prefix, p, func(c *coverCtx, w, lo, hi int) { c.visit(w, lo, hi) })
		}},
		{"static", 1, func(c *coverCtx, p int) {
			ForStaticCtx(c, c.n, p, func(c *coverCtx, slab, lo, hi int) {
				if slab < 0 || slab >= c.nw || lo != slab*c.n/c.nw || hi != (slab+1)*c.n/c.nw {
					c.bad.Add(1)
					return
				}
				c.slabs[slab].Add(1)
				c.visit(slab, lo, hi)
			})
		}},
		{"stages", 2, func(c *coverCtx, p int) {
			ForStagesCtx(c, 3, coverStages, p, func(c *coverCtx, s, w, lo, hi int) {
				off := s / 2 * c.n
				c.visit(w, off+lo, off+hi)
			})
		}},
	}
	for _, sc := range schedules {
		for _, p := range []int{1, 2, 3, 8} {
			for _, n := range []int{0, 1, p - 1, 1000} {
				c := &coverCtx{n: n, nw: Workers(p, n)}
				c.hits = make([]atomic.Int32, sc.stages*n)
				c.slabs = make([]atomic.Int32, c.nw)
				// Skewed weights with zero-weight runs (i%5 == 0).
				c.prefix = make([]int64, n+1)
				for i := 0; i < n; i++ {
					c.prefix[i+1] = c.prefix[i] + int64(i%5)
				}
				sc.run(c, p)
				if b := c.bad.Load(); b != 0 {
					t.Fatalf("%s p=%d n=%d: %d bodies got a bad index or range", sc.name, p, n, b)
				}
				for i := range c.hits {
					if h := c.hits[i].Load(); h != 1 {
						t.Fatalf("%s p=%d n=%d: item %d visited %d times", sc.name, p, n, i, h)
					}
				}
				if sc.name == "static" && n > 0 {
					for s := range c.slabs {
						if r := c.slabs[s].Load(); r != 1 {
							t.Fatalf("static p=%d n=%d: slab %d ran %d times", p, n, s, r)
						}
					}
				}
			}
		}
	}
}

func TestForChunkDisjointCover(t *testing.T) {
	n := 12345
	hits := make([]int32, n)
	ForChunk(n, 4, 7, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestForStaticSlabsArePartition(t *testing.T) {
	n := 100
	seen := make([]int32, n)
	workers := make([]int32, 7) // one slot per worker id; no shared writes
	ForStatic(n, 7, func(w, lo, hi int) {
		atomic.AddInt32(&workers[w], 1)
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, h := range seen {
		if h != 1 {
			t.Fatalf("index %d covered %d times", i, h)
		}
	}
	for w, c := range workers {
		if c != 1 {
			t.Fatalf("worker %d ran %d slabs", w, c)
		}
	}
}

// allocCtx is the captureless bodies' state for the allocation gate.
type allocCtx struct {
	prefix []int64
	sink   atomic.Int64
}

func allocChunk(c *allocCtx, _, lo, hi int)    { c.sink.Add(int64(hi - lo)) }
func allocStage(c *allocCtx, _, _, lo, hi int) { c.sink.Add(int64(hi - lo)) }
func allocStageLen(c *allocCtx, s int) int     { return (len(c.prefix) - 1) >> s }
func allocItem(c *allocCtx, i int) float64     { return float64(i) }
func allocItemInt(c *allocCtx, i int) int64    { return int64(i) }

// TestLoopTwoWorkerAllocsBounded pins each schedule's allocations per call
// at two workers, where every call forks and joins. The bounds are the
// counts measured for the per-schedule goroutine loops the single
// dispatcher replaced (amd64, go1.24), so dispatching through it must not
// add per-call allocations. The one-worker paths are pinned at zero by
// TestReductionsSingleWorkerFastPath and TestForStagesCtxSingleWorkerZeroAlloc.
func TestLoopTwoWorkerAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n = 1000
	c := &allocCtx{prefix: make([]int64, n+1)}
	for i := range c.prefix {
		c.prefix[i] = int64(i)
	}
	cases := []struct {
		name string
		max  float64
		run  func()
	}{
		{"ForChunkCtx", 6, func() { ForChunkCtx(c, n, 2, 0, allocChunk) }},
		{"ForChunkPrefixCtx", 7, func() { ForChunkPrefixCtx(c, c.prefix, 2, allocChunk) }},
		{"ForStaticCtx", 5, func() { ForStaticCtx(c, n, 2, allocChunk) }},
		{"ForStagesCtx", 8, func() { ForStagesCtx(c, 3, allocStageLen, 2, allocStage) }},
		{"SumFloat64Ctx", 7, func() { _ = SumFloat64Ctx(c, n, 2, allocItem) }},
		{"MaxInt64Ctx", 7, func() { _ = MaxInt64Ctx(c, n, 2, allocItemInt) }},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(100, tc.run); got > tc.max {
			t.Errorf("%s at 2 workers: %v allocs per call, want <= %v", tc.name, got, tc.max)
		}
	}
}

func TestSumFloat64MatchesSerial(t *testing.T) {
	n := 10000
	want := 0.0
	f := func(_ struct{}, i int) float64 { return float64(i%97) * 0.5 }
	for i := 0; i < n; i++ {
		want += f(struct{}{}, i)
	}
	for _, p := range []int{1, 2, 4, 16} {
		got := SumFloat64Ctx(struct{}{}, n, p, f)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("p=%d: got %v want %v", p, got, want)
		}
	}
}

// TestSumInt64AndMaxInt64 pins the integer reductions. Integer sums run
// through SumFloat64Ctx, the one sum the code has: partial sums below 2^53
// are exact in float64.
func TestSumInt64AndMaxInt64(t *testing.T) {
	n := 5000
	f := func(_ struct{}, i int) int64 { return int64((i * 7) % 101) }
	var want int64
	var wantMax int64
	for i := 0; i < n; i++ {
		want += f(struct{}{}, i)
		if f(struct{}{}, i) > wantMax {
			wantMax = f(struct{}{}, i)
		}
	}
	sum := func(_ struct{}, i int) float64 { return float64(f(struct{}{}, i)) }
	if got := SumFloat64Ctx(struct{}{}, n, 4, sum); got != float64(want) {
		t.Fatalf("sum: got %v want %d", got, want)
	}
	if got := MaxInt64Ctx(struct{}{}, n, 4, f); got != wantMax {
		t.Fatalf("max: got %d want %d", got, wantMax)
	}
	if got := MaxInt64Ctx(struct{}{}, 0, 4, f); got != 0 {
		t.Fatalf("max of empty: got %d want 0", got)
	}
}

func TestExclusivePrefixSumSmallAndLarge(t *testing.T) {
	for _, n := range []int{0, 1, 5, 4096, 100000} {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i%13 + 1)
		}
		want := make([]int64, n)
		var run int64
		for i := 0; i < n; i++ {
			want[i] = run
			run += v[i]
		}
		got := make([]int64, n)
		copy(got, v)
		total := ExclusivePrefixSum(got, 4)
		if total != run {
			t.Fatalf("n=%d: total %d want %d", n, total, run)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: at %d got %d want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestExclusivePrefixSumProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		v := make([]int64, len(raw))
		for i, x := range raw {
			v[i] = int64(x)
		}
		ref := make([]int64, len(v))
		copy(ref, v)
		var run int64
		for i := range ref {
			ref[i], run = run, run+ref[i]
		}
		total := ExclusivePrefixSum(v, 8)
		if total != run {
			return false
		}
		for i := range v {
			if v[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicFloat64Concurrent(t *testing.T) {
	var a Float64
	const workers, adds = 8, 10000
	ForChunkCtx(&a, workers*adds, workers, 0, func(a *Float64, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			a.Add(0.5)
		}
	})
	want := float64(workers*adds) * 0.5
	if got := a.Load(); got != want {
		t.Fatalf("got %v want %v", got, want)
	}
	a.Store(-3)
	if got := a.Load(); got != -3 {
		t.Fatalf("store/load: got %v", got)
	}
}

func TestAddFloat64DenseArrayConcurrent(t *testing.T) {
	cells := make([]float64, 16)
	const total = 64000
	ForChunkCtx(cells, total, 8, 0, func(cells []float64, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			AddFloat64(&cells[i%16], 1)
		}
	})
	for i, c := range cells {
		if c != total/16 {
			t.Fatalf("cell %d = %v, want %d", i, c, total/16)
		}
	}
}

func TestRNGDeterminismAndSplit(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should give same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a2 := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
	// SplitN(i) must be stable and independent of call order.
	r := NewRNG(7)
	x := r.SplitN(3).Uint64()
	r2 := NewRNG(7)
	_ = r2.SplitN(1).Uint64()
	if y := r2.SplitN(3).Uint64(); x != y {
		t.Fatal("SplitN not stable across call order")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for v, c := range counts {
		if c < draws/n*8/10 || c > draws/n*12/10 {
			t.Fatalf("value %d drawn %d times (expected ~%d)", v, c, draws/n)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(257)
	seen := make([]bool, 257)
	for _, v := range p {
		if v < 0 || v >= 257 || seen[v] {
			t.Fatalf("not a permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestNormWorkersBounds(t *testing.T) {
	if got := normWorkers(0, 10); got != DefaultWorkers() && got != 10 {
		// p=0 → default, clamped to n=10.
		t.Fatalf("unexpected normWorkers(0,10)=%d", got)
	}
	if got := normWorkers(99, 3); got != 3 {
		t.Fatalf("normWorkers(99,3)=%d, want 3", got)
	}
	if got := normWorkers(4, 0); got != 1 {
		t.Fatalf("normWorkers(4,0)=%d, want 1", got)
	}
}
