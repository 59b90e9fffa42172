package par

import (
	"sort"
	"sync"
	"testing"
)

func TestSparseAccumBasics(t *testing.T) {
	a := NewSparseAccum(10, 4)
	if a.Universe() != 10 {
		t.Fatalf("universe = %d", a.Universe())
	}
	a.Ensure(3)
	a.Add(7, 1.5)
	a.Add(3, 2.0)
	a.Add(7, 0.5)
	if got := a.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	keys := a.Keys()
	if keys[0] != 3 || keys[1] != 7 {
		t.Fatalf("keys = %v, want first-touch order [3 7]", keys)
	}
	if a.Get(3) != 2.0 || a.Get(7) != 2.0 || a.Get(5) != 0 {
		t.Fatalf("values: %v %v %v", a.Get(3), a.Get(7), a.Get(5))
	}
}

func TestSparseAccumResetIsolatesEpochs(t *testing.T) {
	a := NewSparseAccum(4, 0)
	a.Add(2, 5)
	a.Reset()
	if a.Len() != 0 || a.Get(2) != 0 {
		t.Fatalf("stale value visible after Reset: len=%d get=%v", a.Len(), a.Get(2))
	}
	a.Add(2, 1)
	if a.Get(2) != 1 {
		t.Fatalf("value after re-add = %v, want 1 (no leak from prior epoch)", a.Get(2))
	}
}

func TestSparseAccumGenerationWraparound(t *testing.T) {
	a := NewSparseAccum(3, 0)
	a.Add(1, 4)
	a.gen = 1<<31 - 1 // force the wraparound path on the next Reset
	a.slots[1].mark = a.gen
	a.Reset()
	if a.gen != 1 {
		t.Fatalf("gen after wraparound = %d, want 1", a.gen)
	}
	if a.Get(1) != 0 || a.Len() != 0 {
		t.Fatal("stale slot visible after wraparound Reset")
	}
	a.Add(1, 2)
	if a.Get(1) != 2 {
		t.Fatalf("Get after wraparound = %v, want 2", a.Get(1))
	}
}

func TestSparseAccumKeysSortableInPlace(t *testing.T) {
	a := NewSparseAccum(100, 0)
	for _, k := range []int32{42, 7, 99, 7, 13} {
		a.Add(k, float64(k))
	}
	keys := a.Keys()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	want := []int32{7, 13, 42, 99}
	for i, k := range want {
		if keys[i] != k {
			t.Fatalf("sorted keys = %v, want %v", keys, want)
		}
		if i > 0 && a.Get(k) != float64(k) {
			t.Fatalf("Get(%d) = %v after in-place sort", k, a.Get(k))
		}
	}
	if a.Get(7) != 14 { // 7 added twice
		t.Fatalf("Get(7) = %v, want 14", a.Get(7))
	}
}

func TestForChunkWorkerCoversRangeWithValidWorkerIDs(t *testing.T) {
	const n, p = 1000, 4
	nw := Workers(p, n)
	seen := make([]int32, n)
	var mu sync.Mutex
	workersUsed := map[int]bool{}
	ForChunkCtx(struct{}{}, n, p, 17, func(_ struct{}, w, lo, hi int) {
		if w < 0 || w >= nw {
			t.Errorf("worker id %d out of [0,%d)", w, nw)
		}
		mu.Lock()
		workersUsed[w] = true
		mu.Unlock()
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
	if len(workersUsed) == 0 {
		t.Fatal("no workers ran")
	}
}

func TestForChunkPrefixCoversRange(t *testing.T) {
	// Highly skewed weights, including zero-weight prefix/suffix runs.
	weights := make([]int64, 500)
	for i := range weights {
		switch {
		case i < 10 || i >= 490:
			weights[i] = 0
		case i == 250:
			weights[i] = 100000
		default:
			weights[i] = int64(i % 7)
		}
	}
	prefix := make([]int64, len(weights)+1)
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w
	}
	for _, p := range []int{1, 3, 8} {
		seen := make([]int32, len(weights))
		ForChunkPrefix(prefix, p, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("p=%d: index %d visited %d times", p, i, c)
			}
		}
	}
}

func TestForChunkPrefixAllZeroWeights(t *testing.T) {
	prefix := make([]int64, 101) // 100 items, all weight 0
	count := 0
	ForChunkPrefix(prefix, 4, func(w, lo, hi int) { count += hi - lo })
	if count != 100 {
		t.Fatalf("covered %d of 100 zero-weight items", count)
	}
}

func BenchmarkSparseAccumAddReset(b *testing.B) {
	a := NewSparseAccum(1<<16, 64)
	keys := make([]int32, 64)
	for i := range keys {
		keys[i] = int32((i * 1021) % (1 << 16))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		for _, k := range keys {
			a.Add(k, 1.0)
		}
	}
}
