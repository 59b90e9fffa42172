package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// Failure-injection tests: corrupt serialized graphs must fail loudly, not
// produce silently wrong structures.

func TestBinaryTruncatedAtEveryBoundary(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncate at a spread of offsets including each header/array boundary.
	cuts := []int{0, 7, 8, 16, 23, 24, 40, len(full) / 2, len(full) - 1}
	for _, cut := range cuts {
		if cut >= len(full) {
			continue
		}
		if _, err := ReadBinary(bytes.NewReader(full[:cut]), int64(cut), 1); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
		// A stream shorter than its declared size must fail too.
		if _, err := ReadBinary(bytes.NewReader(full[:cut]), int64(len(full)), 1); err == nil {
			t.Fatalf("truncation at %d bytes of a %d-byte stream accepted", cut, len(full))
		}
	}
	// The intact stream still loads.
	if _, err := ReadBinary(bytes.NewReader(full), int64(len(full)), 1); err != nil {
		t.Fatalf("intact stream rejected: %v", err)
	}
}

// TestBinaryCorruptedCountsRejected rewrites the header's count fields.
// Every case must fail with an error before the reader allocates arrays
// sized from the corrupt counts: n = 2^62 used to panic in makeslice, and
// n = 2^64−1 made n+1 wrap to 0 and panicked on a slice bound.
func TestBinaryCorruptedCountsRejected(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		field int // byte offset of the header field: 8 = n, 16 = arcs
		value uint64
	}{
		{"arcs low byte 0xff", 16, uint64(g.ArcCount()) | 0xff},
		{"arcs 2^62", 16, 1 << 62},
		{"arcs 2^64-1", 16, math.MaxUint64},
		{"n 2^62", 8, 1 << 62},
		{"n 2^64-1", 8, math.MaxUint64},
		{"n 2^31", 8, 1 << 31},
		{"n+1", 8, uint64(g.N()) + 1},
	} {
		data := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint64(data[tc.field:], tc.value)
		// Both the header alone and the full corrupted stream.
		for _, d := range [][]byte{data[:24], data} {
			if _, err := ReadBinary(bytes.NewReader(d), int64(len(d)), 1); err == nil {
				t.Errorf("%s (%d-byte stream): corrupted count accepted", tc.name, len(d))
			}
		}
		// LoadFile measures the file itself.
		path := filepath.Join(t.TempDir(), "g.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path, 1); err == nil {
			t.Errorf("%s: LoadFile accepted the corrupted file", tc.name)
		}
	}
}

func TestBinaryCorruptedAdjacencyCaughtByValidate(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	// Flip a byte inside the adjacency region: offsets are
	// 24 (header) + 8*(n+1) = 24+32 = 56; adjacency starts at 56.
	data[56] ^= 0x7f
	if _, err := ReadBinary(bytes.NewReader(data), int64(len(data)), 1); err == nil {
		t.Fatal("corrupted adjacency accepted (Validate should reject)")
	}
}

// TestBinaryMalformedOffsetsRejected rewrites single offsets. Building the
// graph slices rows by them, so each must fail as a load error before that:
// a non-monotone offset used to panic with a slice-bounds error.
func TestBinaryMalformedOffsetsRejected(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		index int // offsets[index] is rewritten
		value int64
	}{
		{"non-monotone", 1, 5},
		{"negative", 1, -1},
		{"nonzero start", 0, 1},
		{"end past the arcs", 3, g.ArcCount() + 1},
	} {
		data := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint64(data[binHeaderBytes+8*tc.index:], uint64(tc.value))
		if _, err := ReadBinary(bytes.NewReader(data), int64(len(data)), 2); err == nil {
			t.Errorf("%s: malformed offsets accepted", tc.name)
		}
	}
}
