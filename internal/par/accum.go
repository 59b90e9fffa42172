package par

import "slices"

// SparseAccum is a reusable, allocation-free sparse accumulator over int32
// keys drawn from a bounded universe [0, universe): a flat slot array
// indexed directly by key, each slot packing the accumulated value together
// with a generation stamp marking which "epoch" last wrote it, plus a dense
// []int32 list of the keys touched since the last Reset (in first-touch
// order).
//
// It replaces the per-vertex neighbor-community hash map the paper
// identifies as the dominant cost of the local-move phase (§5.5): Add is a
// single array index plus a stamp compare instead of a hash probe, Reset is
// O(1) amortized (bump the generation, truncate the key list — stale values
// are never cleared, merely outdated), and no allocation ever happens after
// construction as long as the touched-key count stays within the declared
// maxKeys. This is the standard flat-accumulator trick of later parallel
// Louvain codes (Vite, NetworKit's PLM).
//
// The stamp and value are deliberately INTERLEAVED in one 16-byte slot
// rather than held in parallel arrays: every Add reads the stamp and then
// touches the value, and with split arrays that is two scattered cache
// lines per arc of the sweep hot loop. One packed slot makes it one line
// (and one bounds check), which measurably speeds up the decide kernels —
// the same locality argument as the graph's interleaved arc layout.
//
// A SparseAccum is not safe for concurrent use; give each worker its own
// (see ForChunkCtx's worker index).
type SparseAccum struct {
	slots []accumSlot // slots[k].val is meaningful iff slots[k].mark == gen
	keys  []int32     // keys touched since Reset, first-touch order
	gen   int32       // current epoch; starts at 1 so zeroed stamps are stale
}

// accumSlot packs one key's accumulated value with its generation stamp so
// the stamp check and the value update share a cache line. 16 bytes after
// alignment padding.
type accumSlot struct {
	mark int32
	val  float64
}

// NewSparseAccum returns an accumulator for keys in [0, universe) able to
// hold maxKeys distinct touched keys between Resets without reallocating.
// maxKeys <= 0 or > universe defaults to universe.
func NewSparseAccum(universe, maxKeys int) *SparseAccum {
	if universe < 0 {
		universe = 0
	}
	if maxKeys <= 0 || maxKeys > universe {
		maxKeys = universe
	}
	return &SparseAccum{
		slots: make([]accumSlot, universe),
		keys:  make([]int32, 0, maxKeys),
		gen:   1,
	}
}

// Universe returns the current key-space size.
func (a *SparseAccum) Universe() int { return len(a.slots) }

// Grow extends the key space to at least universe keys in place. Keys touched
// in the current epoch keep their values; new slots start stale (their zero
// stamp never matches a live generation). It lets a pooled accumulator follow
// a growing universe — e.g. an Engine reused on a larger graph — without
// discarding the amortized key-list capacity already built up.
func (a *SparseAccum) Grow(universe int) {
	if universe <= len(a.slots) {
		return
	}
	slots := make([]accumSlot, universe)
	copy(slots, a.slots)
	a.slots = slots
}

// Reset forgets all touched keys in O(1): it bumps the generation so every
// slot's stamp becomes stale and truncates the key list. Values are left in
// place — they are unreadable until their slot is re-stamped by Add/Ensure.
//
//grappolo:hotpath
func (a *SparseAccum) Reset() {
	a.keys = a.keys[:0]
	if a.gen == 1<<31-1 { // int32 exhaustion after ~2^31 Resets: re-zero stamps
		for i := range a.slots {
			a.slots[i].mark = 0
		}
		a.gen = 0
	}
	a.gen++
}

// Ensure registers key k with value 0 if it has not been touched this epoch.
// Used to pin a vertex's own community at keys[0] even when no neighbor
// shares it (e_{i→C(i)\{i}} may legitimately be 0).
//
//grappolo:hotpath
func (a *SparseAccum) Ensure(k int32) {
	s := &a.slots[k]
	if s.mark != a.gen {
		s.mark = a.gen
		s.val = 0
		a.keys = append(a.keys, k)
	}
}

// Add accumulates w onto key k, registering k on first touch.
//
//grappolo:hotpath
func (a *SparseAccum) Add(k int32, w float64) {
	s := &a.slots[k]
	if s.mark == a.gen {
		s.val += w
		return
	}
	s.mark = a.gen
	s.val = w
	a.keys = append(a.keys, k)
}

// Val returns the accumulated value for a key KNOWN to be touched this
// epoch — one returned by Keys(), or one passed to Ensure/Add since the
// last Reset. It skips the staleness check Get pays, which matters in the
// decide selection loop where every candidate community is by construction
// a touched key. Reading an untouched key returns garbage from an earlier
// epoch; use Get when in doubt.
//
//grappolo:hotpath
func (a *SparseAccum) Val(k int32) float64 { return a.slots[k].val }

// Get returns the accumulated value for k, or 0 if k is untouched.
//
//grappolo:hotpath
func (a *SparseAccum) Get(k int32) float64 {
	s := &a.slots[k]
	if s.mark != a.gen {
		return 0
	}
	return s.val
}

// Len returns the number of distinct keys touched since Reset.
//
//grappolo:hotpath
func (a *SparseAccum) Len() int { return len(a.keys) }

// Keys returns the touched keys in first-touch order. The slice aliases
// internal storage: it is valid until the next Reset, and callers may
// reorder it in place (e.g. sort it) — values stay addressable via Get.
//
//grappolo:hotpath
func (a *SparseAccum) Keys() []int32 { return a.keys }

// SortInt32 sorts a small int32 slice ascending: insertion sort for the
// typically tiny coarsened/accumulator rows, stdlib pdqsort for the
// occasional hub row. No closure-based sort.Slice on hot paths.
func SortInt32(v []int32) {
	if len(v) <= 24 {
		for i := 1; i < len(v); i++ {
			x := v[i]
			j := i - 1
			for j >= 0 && v[j] > x {
				v[j+1] = v[j]
				j--
			}
			v[j+1] = x
		}
		return
	}
	slices.Sort(v)
}
