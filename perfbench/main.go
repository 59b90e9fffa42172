// Command perfbench is grappolo's repository benchmark. It generates one
// workload's inputs from a seed, drives them through the public grappolo
// API for a fixed time, checks every output, and prints its metrics as a
// JSON object on the last line of standard output.
//
//	perfbench --workload batch-file --seed 1 --seconds 26 --trace 0
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 records
// spans around each public call and reports the per-layer metrics. See
// README.md for the workloads and the metric-to-layer map.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"grappolo"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	workdir  string // scratch files (inputs, memberships, spans)
	workers  int    // GOMAXPROCS: detection workers and client count
	size     sizes
}

// sizes are the input sizes and minimum sample counts of a run; tiny
// shrinks everything for the smoke tests.
type sizes struct {
	batchLog2    int // batch-file vertices = 2^batchLog2, pendants included
	serveSeeds   int // serve-mix catalogue = 11 suite inputs x serveSeeds
	streamLog2   int // stream-edits seed LFR vertices = 2^streamLog2
	minRequests  int // enough for serve's p99 tail rule
	minApplies   int // enough for stream's p90 tail rule
	ladderRounds int
}

var fullSizes = sizes{
	batchLog2: 20, serveSeeds: 32, streamLog2: 16,
	minRequests: minSamplesFor(99), minApplies: minSamplesFor(90),
	ladderRounds: 300,
}

var tinySizes = sizes{
	batchLog2: 12, serveSeeds: 2, streamLog2: 11,
	minRequests: 20, minApplies: 3,
	ladderRounds: 10,
}

// workload is one --workload name and the function that runs it.
// BENCHMARK.json lists the same names in the same order (a test checks).
type workload struct {
	name string
	run  func(context.Context, config, *report) error
}

var workloads = []workload{
	{"batch-file", runBatch},
	{"serve-mix", runServe},
	{"stream-edits", runStream},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, and every repetition must produce the same input hash.
const setupReps = 3

var errUsage = errors.New("usage")

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", strings.Join(workloadNames(), " | "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 26, "measured time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/perfbench-work", "directory for generated files")
	if err := fs.Parse(args); err != nil {
		return config{}, errUsage
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		workdir:  *workdir,
		workers:  runtime.GOMAXPROCS(0),
		size:     fullSizes,
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return config{}, fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err == nil {
		err = rep.write(os.Stdout, cfg.traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and returns its report.
func run(cfg config) (*report, error) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == cfg.workload })
	if i < 0 {
		return nil, fmt.Errorf("unknown --workload %q (%s)", cfg.workload, strings.Join(workloadNames(), " | "))
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, fmt.Errorf("workdir: %w", err)
	}
	rep := newReport()
	rep.notef("workload=%s seed=%d seconds=%v traced=%v gomaxprocs=%d", cfg.workload, cfg.seed, cfg.seconds, cfg.traced, cfg.workers)
	if err := workloads[i].run(context.Background(), cfg, rep); err != nil {
		return nil, err
	}
	if rep.attempted > 0 {
		rep.set("ok_frac", float64(rep.attempted-rep.failed)/float64(rep.attempted))
	}
	return rep, nil
}

// detectOpts is the engine configuration every workload measures: the
// paper's headline VF + distance-1 coloring.
func detectOpts(workers int) []grappolo.Option {
	return []grappolo.Option{grappolo.Workers(workers), grappolo.VertexFollowing(), grappolo.Coloring(grappolo.Distance1)}
}

// subSeed derives an independent seed for one input of a run.
func subSeed(seed uint64, tag uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + tag*0xbf58476d1ce4e5b9 + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// setupTimed runs set-up setupReps times, checks that each repetition
// hashed to the same inputs, reports the median as setup_s, and returns
// the last repetition's state.
func setupTimed[T any](rep *report, do func() (T, []byte, error)) (T, error) {
	var (
		last  T
		times []float64
		first []byte
	)
	for i := 0; i < setupReps; i++ {
		last = *new(T) // release the previous repetition before timing the next
		clean()
		t0 := time.Now()
		v, sum, err := do()
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if first == nil {
			first = sum
		} else if !bytes.Equal(sum, first) {
			return last, fmt.Errorf("setup: repetition %d generated inputs %x, first gave %x", i, sum, first)
		}
		last = v
	}
	rep.set("setup_s", median(times))
	rep.notef("inputs sha256=%x", first)
	rep.notef("setup_s=%.4f (median of %d repetitions: %.4f)", median(times), setupReps, times)
	clean()
	return last, nil
}

// clean collects garbage and returns freed memory, so each timed section
// starts from the same heap.
func clean() {
	runtime.GC()
	debug.FreeOSMemory()
}

// hasher digests generated inputs.
type hasher struct{ h hash.Hash }

func newHasher() *hasher { return &hasher{h: sha256.New()} }

// add writes fixed-size values or slices of them.
func (h *hasher) add(v any) {
	// Writes to a hash.Hash never fail.
	_ = binary.Write(h.h, binary.LittleEndian, v)
}

func (h *hasher) sum() []byte { return h.h.Sum(nil) }

// hashFile digests a file's bytes.
func hashFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, fmt.Errorf("hash %s: %w", path, err)
	}
	return h.Sum(nil), nil
}

// checkPartition reports why membership is not a dense partition of n
// vertices into k communities, or "" if it is.
func checkPartition(membership []int32, n, k int) string {
	if len(membership) != n {
		return fmt.Sprintf("membership has %d entries for %d vertices", len(membership), n)
	}
	if k < 1 && n > 0 {
		return fmt.Sprintf("%d communities for %d vertices", k, n)
	}
	used := make([]bool, k)
	for i, c := range membership {
		if c < 0 || int(c) >= k {
			return fmt.Sprintf("vertex %d in community %d outside [0,%d)", i, c, k)
		}
		used[c] = true
	}
	for c, u := range used {
		if !u {
			return fmt.Sprintf("community id %d unused: ids are not dense", c)
		}
	}
	return ""
}

// relDiff is |a-b| relative to the larger magnitude.
func relDiff(a, b float64) float64 {
	m := max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
