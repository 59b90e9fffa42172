package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public API. Spans of one op or
// request share op; parent indexes the enclosing span in the same
// recorder (-1 for a root).
type span struct {
	op         int64
	name       string
	parent     int32
	start, end int64 // ns since the recorder's epoch
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every method is a no-op, so the measured loop pays a
// nil check and nothing else. A recorder belongs to one goroutine.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<12)}
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(op int64, name string, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{op: op, name: name, parent: parent, start: int64(time.Since(r.epoch))})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].end = int64(time.Since(r.epoch))
}

// merge concatenates per-goroutine recorders sharing one epoch, shifting
// parent indexes so they stay valid.
func merge(rs []*recorder) []span {
	var out []span
	for _, r := range rs {
		if r == nil {
			continue
		}
		base := int32(len(out))
		for _, s := range r.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// it covered by its children (overlapping children are counted once).
func selfTimes(spans []span) map[string]int64 {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		self[s.name] += (s.end - s.start) - covered(kids[i], s.start, s.end)
	}
	return self
}

// covered returns the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// rootTime sums the durations of root spans: the wall time the self
// times are shares of.
func rootTime(spans []span) int64 {
	var t int64
	for _, s := range spans {
		if s.parent < 0 {
			t += s.end - s.start
		}
	}
	return t
}

// writeSpans writes spans as tab-separated lines: op, name, parent,
// start ns, end ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tname\tparent\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", s.op, s.name, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// layerOf maps a span name ("graph.load") to its layer ("graph").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfShares is each layer's self time as a share of root-span time.
func selfShares(spans []span) map[string]float64 {
	total := float64(rootTime(spans))
	out := make(map[string]float64)
	if total == 0 {
		return out
	}
	for name, t := range selfTimes(spans) {
		out[layerOf(name)] += float64(t) / total
	}
	return out
}

// setSelfShares reports the self.<layer>_share metrics.
func setSelfShares(rep *report, spans []span) {
	for layer, v := range selfShares(spans) {
		rep.set("self."+layer+"_share", v)
	}
}
