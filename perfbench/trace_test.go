package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{op: 1, name: "bench.request", parent: -1, start: 0, end: 100},
		{op: 1, name: "graph.build", parent: 0, start: 10, end: 30},
		{op: 1, name: "serving.stack", parent: 0, start: 30, end: 90},
		// Overlapping grandchildren count once; the part outside their
		// parent is clipped.
		{op: 1, name: "core.detect", parent: 2, start: 40, end: 60},
		{op: 1, name: "core.detect", parent: 2, start: 50, end: 70},
		{op: 1, name: "core.detect", parent: 2, start: 85, end: 95},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"bench.request": 100 - 20 - 60,
		"graph.build":   20,
		"serving.stack": 60 - 30 - 5,
		"core.detect":   20 + 20 + 10,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	if rt := rootTime(spans); rt != 100 {
		t.Errorf("rootTime = %d, want 100", rt)
	}
	shares := selfShares(spans)
	for layer, w := range map[string]float64{"bench": 0.2, "graph": 0.2, "serving": 0.25, "core": 0.5} {
		if math.Abs(shares[layer]-w) > 1e-12 {
			t.Errorf("share(%s) = %v, want %v", layer, shares[layer], w)
		}
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{50, 60}, {0, 20}, {10, 30}, {55, 58}}
	if c := covered(iv, 5, 100); c != 25+10 {
		t.Errorf("covered = %d, want 35", c)
	}
	if c := covered(nil, 0, 10); c != 0 {
		t.Errorf("covered(nil) = %d", c)
	}
}

func TestMergeShiftsParents(t *testing.T) {
	epoch := time.Now()
	a, b := newRecorder(epoch), newRecorder(epoch)
	ra := a.begin(1, "bench.op", -1)
	a.end(a.begin(1, "graph.load", ra))
	a.end(ra)
	rb := b.begin(2, "bench.op", -1)
	b.end(b.begin(2, "core.detect", rb))
	b.end(rb)
	got := merge([]*recorder{a, nil, b})
	if len(got) != 4 {
		t.Fatalf("merged %d spans, want 4", len(got))
	}
	if got[1].parent != 0 || got[3].parent != 2 || got[2].parent != -1 {
		t.Errorf("parents after merge = %d, %d, %d; want 0, -1, 2", got[1].parent, got[2].parent, got[3].parent)
	}
	for _, s := range got {
		if s.end < s.start {
			t.Errorf("span %s ends before it starts", s.name)
		}
	}
}

func TestNilRecorderIsFree(t *testing.T) {
	var r *recorder
	i := r.begin(1, "x.y", -1)
	r.end(i)
	if i != -1 {
		t.Errorf("nil recorder returned span %d", i)
	}
}
