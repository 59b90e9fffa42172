package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestWorkloadsSmoke runs every workload at tiny size, untraced and
// traced, and checks the result line carries every metric with its unit
// and reports no failed operation.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				cfg, err := parseFlags([]string{"--workload", w, "--seed", "7", "--seconds", "0.5", "--trace", trace, "--workdir", dir})
				if err != nil {
					t.Fatal(err)
				}
				cfg.size = tinySizes
				rep, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := rep.write(&out, cfg.traced); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res jsonResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				defs := endToEnd
				if cfg.traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
					if !cfg.traced && m.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", d.name)
					}
				}
			})
		}
	}
}

// TestSetupIsDeterministic generates each workload's inputs twice from one
// seed and once from another: the hashes must agree, then differ.
func TestSetupIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	cfg := config{seed: 3, seconds: 1e9, workers: 2, workdir: dir, size: tinySizes}
	other := cfg
	other.seed = 4
	type gen func(config) []byte
	gens := map[string]gen{
		"batch-file": func(c config) []byte {
			_, h, err := makeBatchInput(c, 1<<c.size.batchLog2)
			if err != nil {
				t.Fatal(err)
			}
			return h
		},
		"serve-mix": func(c config) []byte {
			_, h, err := makeServeInput(c)
			if err != nil {
				t.Fatal(err)
			}
			return h
		},
		"stream-edits": func(c config) []byte {
			_, h, err := makeStreamInput(c)
			if err != nil {
				t.Fatal(err)
			}
			return h
		},
	}
	for name, g := range gens {
		a, b, c := g(cfg), g(cfg), g(other)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed hashed %x then %x", name, a, b)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", name)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's metric lists and
// the program's in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if want := workloadNames(); !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json lists workloads %q, the program runs %q", names, want)
	}
	if _, err := run(config{workload: "no-such-workload", workdir: t.TempDir()}); err == nil {
		t.Errorf("unknown workload accepted")
	}
}
