package par

import "testing"

func TestResize(t *testing.T) {
	s := Resize[int32](nil, 8)
	if len(s) != 8 {
		t.Fatalf("len %d, want 8", len(s))
	}
	for i := range s {
		s[i] = int32(i)
	}
	shrunk := Resize(s, 3)
	if len(shrunk) != 3 || &shrunk[0] != &s[0] {
		t.Fatal("shrink must reuse the backing array")
	}
	same := Resize(shrunk, 8)
	if &same[0] != &s[0] {
		t.Fatal("regrow within capacity must reuse the backing array")
	}
	grown := Resize(s, 9)
	if len(grown) != 9 {
		t.Fatalf("len %d, want 9", len(grown))
	}
}

func TestArenaZeroesAndRecycles(t *testing.T) {
	var a Arena
	x := a.Int64(4)
	for i := range x {
		if x[i] != 0 {
			t.Fatal("arena slice not zeroed")
		}
		x[i] = int64(i) + 1
	}
	y := a.Int64(4)
	for i := range y {
		if y[i] != 0 {
			t.Fatal("second take not zeroed")
		}
	}
	if &x[0] == &y[0] {
		t.Fatal("outstanding takes must not alias")
	}
	a.Reset()
	z := a.Int64(4)
	for i := range z {
		if z[i] != 0 {
			t.Fatal("recycled slice not zeroed")
		}
	}
}

func TestArenaOutstandingSlicesSurviveGrowth(t *testing.T) {
	var a Arena
	x := a.Int32(2)
	x[0], x[1] = 7, 8
	// Force a mid-cycle regrow; x keeps referencing the old backing array.
	_ = a.Int32(1 << 12)
	if x[0] != 7 || x[1] != 8 {
		t.Fatal("outstanding slice corrupted by arena growth")
	}
}

func TestArenaWarmCycleZeroAllocs(t *testing.T) {
	var a Arena
	cycle := func() {
		a.Reset()
		for i := 0; i < 4; i++ {
			_ = a.Int64(100)
			_ = a.Int32(50)
			_ = a.Float64(25)
		}
	}
	cycle() // cold: spills across growing backing arrays
	cycle() // warm-up after the Reset pre-grow
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("warm arena cycle allocates %v times, want 0", allocs)
	}
}

func TestSparseAccumGrowPreservesEpoch(t *testing.T) {
	a := NewSparseAccum(4, 0)
	a.Add(1, 2.5)
	a.Add(3, 1.5)
	a.Grow(16)
	if a.Universe() != 16 {
		t.Fatalf("universe %d, want 16", a.Universe())
	}
	if a.Get(1) != 2.5 || a.Get(3) != 1.5 || a.Len() != 2 {
		t.Fatal("Grow dropped current-epoch contents")
	}
	a.Add(10, 4)
	if a.Get(10) != 4 || a.Len() != 3 {
		t.Fatal("grown slots unusable")
	}
	a.Reset()
	if a.Get(10) != 0 || a.Len() != 0 {
		t.Fatal("Reset after Grow leaks state")
	}
}

func TestReductionsSingleWorkerFastPath(t *testing.T) {
	n := 1000
	f := func(_ struct{}, i int) float64 { return float64(i) }
	want := SumFloat64Ctx(struct{}{}, n, 4, f)
	if got := SumFloat64Ctx(struct{}{}, n, 1, f); got != want {
		t.Fatalf("SumFloat64Ctx p=1 %v != p=4 %v", got, want)
	}
	if got := SumFloat64Ctx(struct{}{}, n, 1, f); got != float64(n*(n-1)/2) {
		t.Fatalf("SumFloat64Ctx p=1 = %v, want %d", got, n*(n-1)/2)
	}
	mod37 := func(_ struct{}, i int) int64 { return int64(i % 37) }
	if got := MaxInt64Ctx(struct{}{}, n, 1, mod37); got != 36 {
		t.Fatalf("MaxInt64Ctx p=1 = %d, want 36", got)
	}
	allocs := testing.AllocsPerRun(10, func() {
		_ = SumFloat64Ctx(struct{}{}, n, 1, f)
		_ = MaxInt64Ctx(struct{}{}, n, 1, func(_ struct{}, i int) int64 { return int64(i) })
	})
	if allocs != 0 {
		t.Fatalf("single-worker reductions allocate %v times, want 0", allocs)
	}
}
