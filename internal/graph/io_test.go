package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grappolo/internal/par"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestReadEdgeListCommentsAndWeights(t *testing.T) {
	in := `# comment
% another comment

0 1
1 2 2.5
`
	g, err := ReadEdgeList(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.EdgeCount() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.EdgeCount())
	}
	if w, _ := g.EdgeWeight(1, 2); w != 2.5 {
		t.Fatalf("weight=%v", w)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 1 {
		t.Fatalf("default weight=%v", w)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",        // too few fields
		"a b\n",      // bad vertex
		"0 x\n",      // bad vertex
		"0 1 zero\n", // bad weight
		"0 1 -2\n",   // non-positive weight
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), 1); err == nil {
			t.Fatalf("input %q: want error", in)
		}
	}
}

// TestLoadersRejectBadWeights pins the weight admission of both text
// loaders: a weight that is not a positive finite number is an
// ErrBadWeight error. A NaN or Inf weight used to load and then keep the
// detection's iteration loop from ever converging; METIS used to coerce a
// non-positive weight to 1.
func TestLoadersRejectBadWeights(t *testing.T) {
	for _, w := range []string{"nan", "NaN", "inf", "+Inf", "-inf", "0", "-0", "-3"} {
		edges := "0 1 " + w + "\n1 2 1\n"
		if _, err := ReadEdgeList(strings.NewReader(edges), 1); !errors.Is(err, ErrBadWeight) {
			t.Errorf("edge list weight %q: err = %v, want ErrBadWeight", w, err)
		}
		metis := "3 2 1\n2 " + w + "\n1 " + w + " 3 1\n2 1\n"
		if _, err := ReadMETIS(strings.NewReader(metis), 1); !errors.Is(err, ErrBadWeight) {
			t.Errorf("METIS weight %q: err = %v, want ErrBadWeight", w, err)
		}
	}
	for _, w := range []string{"1", "0.25", "1e300"} {
		if _, err := ReadEdgeList(strings.NewReader("0 1 "+w+"\n"), 1); err != nil {
			t.Errorf("edge list weight %q: %v", w, err)
		}
		if _, err := ReadMETIS(strings.NewReader("2 1 1\n2 "+w+"\n1 "+w+"\n"), 1); err != nil {
			t.Errorf("METIS weight %q: %v", w, err)
		}
	}
}

func TestReadMETISBasic(t *testing.T) {
	// 3-vertex path 1-2-3 (1-based METIS), unweighted.
	in := `% comment
3 2
2
1 3
2
`
	g, err := ReadMETIS(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.EdgeCount() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.EdgeCount())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatal("wrong structure")
	}
}

func TestReadMETISEdgeWeights(t *testing.T) {
	in := `2 1 1
2 7
1 7
`
	g, err := ReadMETIS(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 7 {
		t.Fatalf("weight=%v want 7", w)
	}
}

func TestReadMETISVertexAndEdgeWeights(t *testing.T) {
	in := `2 1 11
5 2 7
9 1 7
`
	g, err := ReadMETIS(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 7 {
		t.Fatalf("weight=%v want 7 (vertex weights must be skipped)", w)
	}
}

func TestReadMETISErrors(t *testing.T) {
	cases := []string{
		"",            // empty
		"3\n",         // short header
		"1 0\n2\n",    // neighbor out of range
		"1 0\nx\n",    // bad neighbor
		"1 0\n1\n1\n", // more adjacency lines than n
	}
	for _, in := range cases {
		if _, err := ReadMETIS(strings.NewReader(in), 1); err == nil {
			t.Fatalf("input %q: want error", in)
		}
	}
}

func TestMETISRoundTrip(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMETIS(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestMETISRoundTripWeighted(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 2.5)
	b.AddEdge(1, 2, 0.125)
	b.AddEdge(2, 3, 7)
	g := b.Build(1)
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMETIS(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestBinaryRoundTrip(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf, int64(buf.Len()), 2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(make([]byte, 24)), 24, 1); err == nil {
		t.Fatal("want error for bad magic")
	}
	if _, err := ReadBinary(bytes.NewReader(nil), 0, 1); err == nil {
		t.Fatal("want error for empty input")
	}
}

// TestWriteBinaryMatchesEncodingBinary pins WriteBinary's bytes to what
// encoding/binary produces for the same header and arrays, on the direct
// path and on the encoding/binary path big-endian hosts take, and checks
// that both read paths load those bytes back to the same graph.
func TestWriteBinaryMatchesEncodingBinary(t *testing.T) {
	rng := par.NewRNG(3)
	edges := benchEdges(300, 1200, 5)
	for i := range edges {
		edges[i].W = 0.5 + rng.Float64()
	}
	g := FromEdges(300, edges, 2)
	var ref bytes.Buffer
	for _, v := range []any{binMagic, uint64(g.N()), uint64(g.ArcCount()), g.offsets, g.adj, g.weights} {
		if err := binary.Write(&ref, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	want := sha256.Sum256(ref.Bytes())
	defer func(native bool) { nativeLE = native }(nativeLE)
	for _, native := range []bool{nativeLE, false} {
		nativeLE = native
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(buf.Bytes()); got != want {
			t.Fatalf("nativeLE=%v: WriteBinary sha256 %x, encoding/binary %x", native, got, want)
		}
		g2, err := ReadBinary(bytes.NewReader(ref.Bytes()), int64(ref.Len()), 2)
		if err != nil {
			t.Fatalf("nativeLE=%v: %v", native, err)
		}
		if g2.StrongHash() != g.StrongHash() {
			t.Fatalf("nativeLE=%v: loaded graph differs from the written one", native)
		}
	}
}

func TestLoadFileDispatch(t *testing.T) {
	dir := t.TempDir()
	g := triangle(t)

	elPath := filepath.Join(dir, "g.txt")
	var el bytes.Buffer
	if err := WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(elPath, el.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "g.bin")
	var bb bytes.Buffer
	if err := WriteBinary(&bb, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, bb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	metisPath := filepath.Join(dir, "g.graph")
	if err := os.WriteFile(metisPath, []byte("3 2\n2\n1 3\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{elPath, binPath} {
		got, err := LoadFile(path, 2)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		assertSameGraph(t, g, got)
	}
	gm, err := LoadFile(metisPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gm.N() != 3 || gm.EdgeCount() != 2 {
		t.Fatal("metis load wrong")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.txt"), 1); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	// 5 isolated
	g := b.Build(2)
	label, count := ConnectedComponents(g)
	if count != 3 {
		t.Fatalf("count=%d want 3", count)
	}
	if label[0] != label[1] || label[1] != label[2] {
		t.Fatal("component 0 mislabeled")
	}
	if label[3] != label[4] || label[3] == label[0] {
		t.Fatal("component 1 mislabeled")
	}
	if label[5] == label[0] || label[5] == label[3] {
		t.Fatal("isolated vertex mislabeled")
	}
}

func TestLargestComponent(t *testing.T) {
	b := NewBuilder(7)
	// component A: 0-1-2-3 (4 vertices), component B: 4-5 , isolated 6.
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(4, 5, 1)
	g := b.Build(2)
	sub, remap := LargestComponent(g, 2)
	if sub.N() != 4 {
		t.Fatalf("largest component n=%d want 4", sub.N())
	}
	if remap[4] != -1 || remap[6] != -1 {
		t.Fatal("dropped vertices must map to -1")
	}
	if w, ok := sub.EdgeWeight(int(remap[0]), int(remap[1])); !ok || w != 2 {
		t.Fatal("edge weight lost in extraction")
	}
	// Connected graph returns the same object.
	b2 := NewBuilder(2)
	b2.AddEdge(0, 1, 1)
	g2 := b2.Build(1)
	same, remap2 := LargestComponent(g2, 1)
	if same != g2 || remap2[1] != 1 {
		t.Fatal("connected graph should be returned unchanged")
	}
}

func assertSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.N() != b.N() || a.ArcCount() != b.ArcCount() {
		t.Fatalf("shape differs: n %d/%d arcs %d/%d", a.N(), b.N(), a.ArcCount(), b.ArcCount())
	}
	if math.Abs(a.TotalWeight()-b.TotalWeight()) > 1e-9 {
		t.Fatalf("total weight differs: %v vs %v", a.TotalWeight(), b.TotalWeight())
	}
	for i := 0; i < a.N(); i++ {
		na, wa := a.Neighbors(i)
		nb, wb := b.Neighbors(i)
		if len(na) != len(nb) {
			t.Fatalf("vertex %d row length differs", i)
		}
		for k := range na {
			if na[k] != nb[k] || math.Abs(wa[k]-wb[k]) > 1e-9 {
				t.Fatalf("vertex %d entry %d differs: (%d,%v) vs (%d,%v)", i, k, na[k], wa[k], nb[k], wb[k])
			}
		}
	}
}
