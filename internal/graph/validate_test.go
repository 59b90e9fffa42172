package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"grappolo/internal/par"
)

// validateReference is the serial validator validate replaced, kept as the
// differential oracle: every arc, lower ones included, is checked in vertex
// order, with a per-row duplicate map and a linear reverse-arc scan. Its
// only change is the weight failure, which wraps ErrBadWeight.
func (g *Graph) validateReference() error {
	n := g.N()
	if len(g.offsets) != n+1 || g.offsets[0] != 0 {
		return fmt.Errorf("graph: bad offsets header")
	}
	for i := 0; i < n; i++ {
		if g.offsets[i] > g.offsets[i+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", i)
		}
	}
	if g.offsets[n] != int64(len(g.adj)) || len(g.adj) != len(g.weights) {
		return fmt.Errorf("graph: adjacency length mismatch")
	}
	var sum float64
	for i := 0; i < n; i++ {
		nbr, w := g.Neighbors(i)
		seen := make(map[int32]struct{}, len(nbr))
		for t, j := range nbr {
			if j < 0 || int(j) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", i, j)
			}
			if w[t] <= 0 || math.IsNaN(w[t]) || math.IsInf(w[t], 0) {
				return fmt.Errorf("%w: edge (%d,%d) has weight %v", ErrBadWeight, i, j, w[t])
			}
			if _, dup := seen[j]; dup {
				return fmt.Errorf("graph: duplicate arc %d->%d", i, j)
			}
			seen[j] = struct{}{}
			if int(j) != i {
				wj, ok := g.EdgeWeight(int(j), i)
				if !ok {
					return fmt.Errorf("graph: missing reverse arc %d->%d", j, i)
				}
				if wj != w[t] {
					return fmt.Errorf("graph: asymmetric weight on edge {%d,%d}: %v vs %v", i, j, w[t], wj)
				}
			}
			sum += w[t]
		}
	}
	if math.Abs(sum-g.totalW) > 1e-6*(1+math.Abs(g.totalW)) {
		return fmt.Errorf("graph: cached total weight %v != recomputed %v", g.totalW, sum)
	}
	switch g.layout {
	case LayoutSplit:
		if g.arcs != nil {
			return fmt.Errorf("graph: split layout carries an interleaved arc array")
		}
	case LayoutInterleaved:
		if len(g.arcs) != len(g.adj) {
			return fmt.Errorf("graph: interleaved arc array length %d != adjacency length %d", len(g.arcs), len(g.adj))
		}
		for t := range g.arcs {
			if g.arcs[t].Nbr != g.adj[t] || g.arcs[t].W != g.weights[t] {
				return fmt.Errorf("graph: interleaved arc %d (%d, %v) diverges from split CSR (%d, %v)",
					t, g.arcs[t].Nbr, g.arcs[t].W, g.adj[t], g.weights[t])
			}
		}
	default:
		return fmt.Errorf("graph: unknown layout %d", g.layout)
	}
	return nil
}

// rowArc is one stored arc of a hand-written CSR row.
type rowArc struct {
	j int32
	w float64
}

// rowsGraph builds a finished, unchecked Graph whose row i holds rows[i].
func rowsGraph(rows [][]rowArc) *Graph {
	offsets := make([]int64, len(rows)+1)
	var adj []int32
	var weights []float64
	for i, row := range rows {
		for _, a := range row {
			adj = append(adj, a.j)
			weights = append(weights, a.w)
		}
		offsets[i+1] = int64(len(adj))
	}
	g, _ := FromCSR(offsets, adj, weights, 1, false)
	return g
}

// assertValidateMatchesReference checks validate at 1, 2 and 4 workers
// against the reference: both accept, or both reject with the same text.
func assertValidateMatchesReference(t *testing.T, name string, g *Graph) {
	t.Helper()
	want := fmt.Sprint(g.validateReference())
	for _, p := range []int{1, 2, 4} {
		if got := fmt.Sprint(g.validate(p)); got != want {
			t.Errorf("%s, p=%d: validate = %s, reference = %s", name, p, got, want)
		}
	}
}

func TestValidateMatchesReference(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		rows [][]rowArc
		skew float64 // added to the cached total weight
		ok   bool
	}{
		{name: "sorted rows", ok: true, rows: [][]rowArc{
			{{1, 1}, {2, 3}}, {{0, 1}, {2, 2}}, {{0, 3}, {1, 2}, {2, 5}},
		}},
		{name: "unsorted rows", ok: true, rows: [][]rowArc{
			{{2, 3}, {1, 1}}, {{2, 2}, {0, 1}}, {{2, 5}, {1, 2}, {0, 3}},
		}},
		{name: "self-loops only", ok: true, rows: [][]rowArc{{{0, 2}}, {}, {{2, 0.5}}}},
		{name: "self-loop mid row", ok: true, rows: [][]rowArc{{{1, 1}}, {{0, 1}, {1, 4}, {2, 1}}, {{1, 1}}}},
		{name: "empty graph", ok: true, rows: [][]rowArc{}},
		{name: "isolated vertices", ok: true, rows: [][]rowArc{{}, {}}},
		{name: "missing upper reverse", rows: [][]rowArc{{{1, 1}}, {}}},
		{name: "lower arc without upper partner", rows: [][]rowArc{{}, {{0, 1}}}},
		{name: "orphan lower arc before a later error", rows: [][]rowArc{
			{{2, 1}}, {{0, 1}}, {{0, 1}, {7, 1}},
		}},
		{name: "orphan lower arc in unsorted row", rows: [][]rowArc{
			{{2, 1}}, {}, {{1, 1}, {0, 1}},
		}},
		{name: "asymmetric weight", rows: [][]rowArc{{{1, 2}}, {{0, 3}}}},
		{name: "asymmetric weight seen from unsorted row", rows: [][]rowArc{
			{{2, 1}, {1, 1}}, {{0, 1}}, {{0, 4}},
		}},
		{name: "duplicate in sorted row", rows: [][]rowArc{{{1, 1}, {1, 1}}, {{0, 1}}}},
		{name: "duplicate in unsorted row", rows: [][]rowArc{{{2, 1}, {1, 1}, {2, 1}}, {{0, 1}}, {{0, 1}}}},
		{name: "duplicate lower arc", rows: [][]rowArc{{{1, 1}}, {{0, 1}, {0, 2}}}},
		{name: "neighbor id n", rows: [][]rowArc{{{2, 1}}, {}}},
		{name: "negative neighbor id", rows: [][]rowArc{{{-1, 1}}, {}}},
		{name: "NaN weight", rows: [][]rowArc{{{1, nan}}, {{0, nan}}}},
		{name: "+Inf weight", rows: [][]rowArc{{{1, inf}}, {{0, inf}}}},
		{name: "-Inf weight", rows: [][]rowArc{{{1, -inf}}, {{0, -inf}}}},
		{name: "zero weight", rows: [][]rowArc{{{1, 0}}, {{0, 0}}}},
		{name: "negative weight", rows: [][]rowArc{{{1, -1}}, {{0, -1}}}},
		{name: "bad weight behind an upper probe", rows: [][]rowArc{
			{{1, 1}, {2, 1}}, {{0, 1}, {2, 1}}, {{0, 1}, {1, nan}},
		}},
		{name: "bad total weight", skew: 5, rows: [][]rowArc{{{1, 1}}, {{0, 1}}}},
		{name: "total weight within tolerance", skew: 1e-9, ok: true, rows: [][]rowArc{{{1, 1}}, {{0, 1}}}},
	}
	for _, tc := range cases {
		g := rowsGraph(tc.rows)
		g.totalW += tc.skew
		if err := g.validateReference(); (err == nil) != tc.ok {
			t.Fatalf("%s: reference = %v, want ok=%v", tc.name, err, tc.ok)
		}
		assertValidateMatchesReference(t, tc.name, g)
	}
}

// TestValidateMatchesReferenceOnMutants corrupts one arc of random graphs
// large enough to split into many chunks, so failures land in arbitrary
// chunks and the lowest-vertex rule is exercised at every worker count.
func TestValidateMatchesReferenceOnMutants(t *testing.T) {
	rng := par.NewRNG(7)
	for trial := 0; trial < 300; trial++ {
		n := 20 + rng.Intn(200)
		g := FromEdges(n, benchEdges(n, 3*n, uint64(trial)), 1)
		offsets := append([]int64(nil), g.offsets...)
		adj := append([]int32(nil), g.adj...)
		weights := append([]float64(nil), g.weights...)
		if len(adj) == 0 {
			continue
		}
		t0 := rng.Intn(len(adj))
		switch trial % 6 {
		case 0: // redirect an arc
			adj[t0] = int32(rng.Intn(n))
		case 1: // change a weight
			weights[t0] += 1
		case 2: // an invalid weight
			weights[t0] = []float64{math.NaN(), math.Inf(1), 0, -2}[rng.Intn(4)]
		case 3: // swap two arcs of a row, unsorting it
			if t0+1 < len(adj) {
				adj[t0], adj[t0+1] = adj[t0+1], adj[t0]
				weights[t0], weights[t0+1] = weights[t0+1], weights[t0]
			}
		case 4: // an out-of-range id
			adj[t0] = int32(n + rng.Intn(3))
		case 5: // no change
		}
		m, err := FromCSR(offsets, adj, weights, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		assertValidateMatchesReference(t, fmt.Sprintf("trial %d", trial), m)
	}
}

// readBinaryReference is ReadBinary as it was before the direct decode and
// the parallel validator: the same header rules, encoding/binary for the
// sections, and validateReference for the verdict. errRefHeader marks a
// header rejection, whose text the two readers need not share.
func readBinaryReference(data []byte) error {
	if len(data) < binHeaderBytes {
		return errRefHeader
	}
	magic := binary.LittleEndian.Uint64(data[0:])
	n := binary.LittleEndian.Uint64(data[8:])
	arcs := binary.LittleEndian.Uint64(data[16:])
	body := uint64(len(data) - binHeaderBytes)
	if magic != binMagic || n >= 1<<31 || arcs > body/12 || 8*(n+1)+12*arcs != body {
		return errRefHeader
	}
	g := &Graph{offsets: make([]int64, n+1), adj: make([]int32, arcs), weights: make([]float64, arcs)}
	r := bytes.NewReader(data[binHeaderBytes:])
	for _, s := range []any{g.offsets, g.adj, g.weights} {
		if err := binary.Read(r, binary.LittleEndian, s); err != nil {
			return err
		}
	}
	// finish would slice past a malformed offset array; the reference
	// rejects one on its own before it reads any cached field.
	if checkShape(g.offsets, g.adj, g.weights) == nil {
		g.finish(1)
	}
	return g.validateReference()
}

var errRefHeader = errors.New("reference: bad header")

// FuzzReadBinary feeds arbitrary bytes to ReadBinary: it must never panic,
// and it rejects a stream exactly when the reference reader does, with the
// reference validator's text for a CSR that fails validation.
func FuzzReadBinary(f *testing.F) {
	b := NewBuilder(5)
	for _, e := range [][3]float64{{0, 1, 1}, {1, 2, 2.5}, {0, 2, 3}, {2, 2, 5}, {3, 4, 0.25}, {0, 4, 1}} {
		b.AddEdge(int32(e[0]), int32(e[1]), e[2])
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b.Build(1)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:binHeaderBytes])
	// The corrupt headers of TestBinaryCorruptedCountsRejected, and a
	// corrupt byte in each section.
	for _, c := range []struct {
		field int
		value uint64
	}{{16, 0xff}, {16, 1 << 62}, {16, math.MaxUint64}, {8, 1 << 62}, {8, math.MaxUint64}, {8, 1 << 31}, {8, 6}} {
		data := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(data[c.field:], c.value)
		f.Add(data)
	}
	for _, at := range []int{binHeaderBytes + 8, binHeaderBytes + 8*6, binHeaderBytes + 8*6 + 4*13} {
		data := append([]byte(nil), valid...)
		data[at] ^= 0x41
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := ReadBinary(bytes.NewReader(data), int64(len(data)), 2)
		want := readBinaryReference(data)
		if (err == nil) != (want == nil) {
			t.Fatalf("ReadBinary = %v, reference = %v", err, want)
		}
		if want != nil && !errors.Is(want, errRefHeader) && err.Error() != "graph: invalid CSR input: "+want.Error() {
			t.Fatalf("ReadBinary = %v, reference = %v", err, want)
		}
	})
}
