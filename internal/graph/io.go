package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"unsafe"
)

// ErrBadWeight reports an edge weight that is not a positive finite number.
// The text loaders, Validate (and so the binary loader) and the incremental
// overlay reject NaN, ±Inf, zero and negative weights with it: one NaN or
// Inf poisons every weighted degree and the total weight, and the iteration
// loop of a detection on such a graph never converges. Match with
// errors.Is.
var ErrBadWeight = errors.New("graph: edge weight must be a positive finite number")

// ValidWeight reports whether w is a positive finite number. NaN fails
// every ordered comparison, so a plain w <= 0 test would admit it.
func ValidWeight(w float64) bool { return w > 0 && !math.IsInf(w, 0) }

// ReadEdgeList parses a whitespace-separated edge list: one "u v [w]" per
// line, 0-based vertex ids, '#' or '%' comment lines ignored. Lines with a
// third field use it as the weight; otherwise weight 1 (paper §2).
func ReadEdgeList(r io.Reader, p int) (*Graph, error) {
	b := &Builder{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'u v [w]', got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q: %w", lineNo, fields[1], err)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: %w", lineNo, fields[2], err)
			}
			if !ValidWeight(w) {
				return nil, fmt.Errorf("%w: line %d: weight %v", ErrBadWeight, lineNo, w)
			}
		}
		b.AddEdge(int32(u), int32(v), w)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scanning edge list: %w", err)
	}
	return b.Build(p), nil
}

// WriteEdgeList writes the graph as "u v w" lines, emitting each undirected
// edge once (u <= v).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < g.N(); i++ {
		nbr, wt := g.Neighbors(i)
		for t, j := range nbr {
			if int(j) >= i {
				if _, err := fmt.Fprintf(bw, "%d %d %g\n", i, j, wt[t]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadMETIS parses the METIS/DIMACS10 graph format used by the paper's
// input suite: a header "n m [fmt]" followed by n adjacency lines of
// 1-based neighbor ids, optionally interleaved with weights when fmt
// includes edge weights (fmt "1" or "11"; vertex weights are skipped).
func ReadMETIS(r io.Reader, p int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var n int
	var hasEdgeW, hasVertexW bool
	headerRead := false
	b := &Builder{}
	vertex := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if !headerRead {
			if len(fields) < 2 {
				return nil, fmt.Errorf("graph: METIS header needs at least n and m")
			}
			nv, err := strconv.Atoi(fields[0])
			if err != nil {
				return nil, fmt.Errorf("graph: METIS header n: %w", err)
			}
			n = nv
			if len(fields) >= 3 {
				code := fields[2]
				hasEdgeW = strings.HasSuffix(code, "1")
				hasVertexW = len(code) >= 2 && code[len(code)-2] == '1'
			}
			b.Grow(n)
			headerRead = true
			continue
		}
		if vertex >= n {
			return nil, fmt.Errorf("graph: METIS file has more than %d adjacency lines", n)
		}
		idx := 0
		if hasVertexW {
			idx = 1 // skip vertex weight
		}
		step := 1
		if hasEdgeW {
			step = 2
		}
		for ; idx < len(fields); idx += step {
			j, err := strconv.Atoi(fields[idx])
			if err != nil {
				return nil, fmt.Errorf("graph: METIS vertex %d: bad neighbor %q: %w", vertex+1, fields[idx], err)
			}
			if j < 1 || j > n {
				return nil, fmt.Errorf("graph: METIS vertex %d: neighbor %d out of range", vertex+1, j)
			}
			w := 1.0
			if hasEdgeW {
				if idx+1 >= len(fields) {
					return nil, fmt.Errorf("graph: METIS vertex %d: missing weight", vertex+1)
				}
				w, err = strconv.ParseFloat(fields[idx+1], 64)
				if err != nil {
					return nil, fmt.Errorf("graph: METIS vertex %d: bad weight: %w", vertex+1, err)
				}
				if !ValidWeight(w) {
					return nil, fmt.Errorf("%w: METIS vertex %d: weight %v", ErrBadWeight, vertex+1, w)
				}
			}
			// Each undirected edge appears in both adjacency lines; keep the
			// orientation u <= v once to avoid doubling weights on merge.
			if u := vertex; u <= j-1 {
				b.AddEdge(int32(u), int32(j-1), w)
			}
		}
		vertex++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scanning METIS: %w", err)
	}
	if !headerRead {
		return nil, fmt.Errorf("graph: empty METIS input")
	}
	return b.Build(p), nil
}

// WriteMETIS writes the graph in METIS/DIMACS10 format with edge weights
// (header fmt code "1"): n m 1, followed by one adjacency line per vertex
// with 1-based "neighbor weight" pairs. Self-loops are emitted on their
// owner's line once, which METIS tools tolerate and ReadMETIS round-trips.
// Non-integer weights are written with full precision.
func WriteMETIS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d 1\n", g.N(), g.EdgeCount()); err != nil {
		return err
	}
	for i := 0; i < g.N(); i++ {
		nbr, wts := g.Neighbors(i)
		for t, j := range nbr {
			if t > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "%d %g", j+1, wts[t]); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

const binMagic = uint64(0x47524150504f4c4f) // "GRAPPOLO"

// binHeaderBytes is the binary format's header: magic, n, arc count.
const binHeaderBytes = 24

// WriteBinary serializes the graph in a compact little-endian binary format
// (magic, n, arc count, offsets, adj, weights).
func WriteBinary(w io.Writer, g *Graph) error {
	var hdr [binHeaderBytes]byte
	binary.LittleEndian.PutUint64(hdr[0:], binMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(g.N()))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(g.adj)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeSection(w, g.offsets); err != nil {
		return err
	}
	if err := writeSection(w, g.adj); err != nil {
		return err
	}
	return writeSection(w, g.weights)
}

// ReadBinary deserializes a graph written by WriteBinary from a stream of
// size bytes. The header's vertex and arc counts are checked before
// anything is allocated: n must fit the int32 vertex ids, and the counts
// must describe exactly size bytes, so a corrupt or hostile header fails
// with an error instead of a huge allocation. The graph is then checked
// with Validate on p workers.
func ReadBinary(r io.Reader, size int64, p int) (*Graph, error) {
	var hdr [binHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	magic := binary.LittleEndian.Uint64(hdr[0:])
	n := binary.LittleEndian.Uint64(hdr[8:])
	arcs := binary.LittleEndian.Uint64(hdr[16:])
	if magic != binMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	if n >= 1<<31 {
		return nil, fmt.Errorf("graph: binary header: %d vertices exceed int32 vertex ids", n)
	}
	// Header, then 8 bytes per offset (n+1) and 4+8 per arc. Bounding arcs
	// by the body first keeps 12·arcs from overflowing.
	body := uint64(max(size-binHeaderBytes, 0))
	if arcs > body/12 || 8*(n+1)+12*arcs != body {
		return nil, fmt.Errorf("graph: binary header: %d vertices and %d arcs do not match a %d-byte stream", n, arcs, size)
	}
	offsets := make([]int64, n+1)
	adj := make([]int32, arcs)
	weights := make([]float64, arcs)
	if err := readSection(r, offsets); err != nil {
		return nil, fmt.Errorf("graph: binary offsets: %w", err)
	}
	if err := readSection(r, adj); err != nil {
		return nil, fmt.Errorf("graph: binary adjacency: %w", err)
	}
	if err := readSection(r, weights); err != nil {
		return nil, fmt.Errorf("graph: binary weights: %w", err)
	}
	return FromCSR(offsets, adj, weights, p, true)
}

// nativeLE reports a little-endian host, whose in-memory arrays already are
// the binary format's sections. Elsewhere the sections go through
// encoding/binary.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// sectionBytes views s's memory as bytes.
func sectionBytes[T int64 | int32 | float64](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// writeSection writes s in little-endian order.
func writeSection[T int64 | int32 | float64](w io.Writer, s []T) error {
	if !nativeLE {
		return binary.Write(w, binary.LittleEndian, s)
	}
	_, err := w.Write(sectionBytes(s))
	return err
}

// readSection fills s from little-endian bytes.
func readSection[T int64 | int32 | float64](r io.Reader, s []T) error {
	if !nativeLE {
		return binary.Read(r, binary.LittleEndian, s)
	}
	_, err := io.ReadFull(r, sectionBytes(s))
	return err
}

// LoadFile reads a graph from path, dispatching on extension: ".graph" or
// ".metis" → METIS, ".bin" → binary, anything else → edge list.
func LoadFile(path string, p int) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".graph") || strings.HasSuffix(path, ".metis"):
		return ReadMETIS(f, p)
	case strings.HasSuffix(path, ".bin"):
		// The size bounds the header's counts (see ReadBinary). Seeking
		// measures it without allocating.
		size, err := f.Seek(0, io.SeekEnd)
		if err == nil {
			_, err = f.Seek(0, io.SeekStart)
		}
		if err != nil {
			return nil, err
		}
		return ReadBinary(f, size, p)
	default:
		return ReadEdgeList(f, p)
	}
}
