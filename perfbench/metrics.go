package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef names a reported metric and its unit. The lists below must
// match BENCHMARK.json's end_to_end and per_layer entries (a test checks).
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics. Every workload reports all of
// them; the op_* and throughput/modularity rows mean the workload's own
// headline (see README.md for the per-workload mapping).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_frac", "frac"},
	{"mem_peak_mb", "MiB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"modularity", "Q"},
}

// perLayer are the traced run's metrics. A layer a workload never
// reaches reports 0 there.
var perLayer = []metricDef{
	{"graph.load_s", "s"},
	{"graph.load_mb_per_s", "MB/s"},
	{"graph.build_us_p50", "us"},
	{"graph.build_us_p99", "us"},
	{"core.detect_s", "s"},
	{"core.vf_s", "s"},
	{"core.coloring_s", "s"},
	{"core.clustering_s", "s"},
	{"core.rebuild_s", "s"},
	{"core.unattributed_s", "s"},
	{"core.phases", "count"},
	{"core.iterations", "count"},
	{"coloring.colors_phase0", "count"},
	{"coloring.arc_rsd_phase0", "ratio"},
	{"core.detect_w1_s", "s"},
	{"par.speedup", "x"},
	{"par.efficiency", "ratio"},
	{"seq.detect_s", "s"},
	{"seq.modularity", "Q"},
	{"seq.speedup_vs_parallel", "x"},
	{"shard.detect_s", "s"},
	{"shard.modularity", "Q"},
	{"ladder.detector_us", "us"},
	{"ladder.detector_allocs", "count"},
	{"pool.added_us", "us"},
	{"pool.added_allocs", "count"},
	{"batcher.added_us", "us"},
	{"batcher.added_allocs", "count"},
	{"cache.miss_added_us", "us"},
	{"cache.miss_added_allocs", "count"},
	{"cache.hit_us", "us"},
	{"cache.hit_allocs", "count"},
	{"guard.added_us", "us"},
	{"guard.added_allocs", "count"},
	{"cache.hit_share", "share"},
	{"cache.delta_share", "share"},
	{"cache.miss_share", "share"},
	{"cache.evictions_per_req", "1/req"},
	{"cache.rejected", "count"},
	{"batcher.coalesced_share", "share"},
	{"pool.waited_share", "share"},
	{"guard.shed_share", "share"},
	{"serve.incremental_ms_p50", "ms"},
	{"dynamic.buffer_ns_p50", "ns"},
	{"dynamic.local_apply_ms_p50", "ms"},
	{"dynamic.local_apply_ms_p90", "ms"},
	{"dynamic.refresh_ms_p50", "ms"},
	{"dynamic.batch_applies", "count"},
	{"dynamic.full_runs", "count"},
	{"dynamic.refresh_share", "share"},
	{"trace.overhead_frac", "frac"},
	{"self.bench_share", "share"},
	{"self.graph_share", "share"},
	{"self.core_share", "share"},
	{"self.io_share", "share"},
	{"self.serving_share", "share"},
	{"self.dynamic_share", "share"},
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// notef adds a human-readable line printed before the JSON result.
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and says why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.notef("FAIL: "+format, args...)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the notes, then the result as the last line: the
// end-to-end metrics for an untraced run, the per-layer ones for a traced
// run. An end-to-end metric that is missing or not finite is an error;
// a per-layer one the workload never reached reads 0.
func (r *report) write(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := jsonResult{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !traced {
				missing = append(missing, d.name)
				continue
			}
			v = 0
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("no value for %s", strings.Join(missing, ", "))
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
